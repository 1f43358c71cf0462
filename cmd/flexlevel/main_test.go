package main

import (
	"slices"
	"strings"
	"testing"
)

// TestSubcommandsUsageOrder pins the usage line's subcommand list: the
// exp registry in order, with replay before reliability.
func TestSubcommandsUsageOrder(t *testing.T) {
	want := "fig5|table4|table5|fig6a|fig6b|fig7|ablations|ecc|retshare|" +
		"replay|reliability|crash|throughput|adaptive|scenario|lifetime"
	if got := strings.Join(subcommands(), "|"); got != want {
		t.Errorf("subcommands %s\nwant %s", got, want)
	}
}

// TestRateFlags checks the -faults and -scale bounds in the experiment
// and serve flag sets: NaN, infinite, negative (and, for -scale, zero)
// values are refused with an error naming the flag, and accepted values
// map onto the sweep inputs.
func TestRateFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "NaN"}, {"-faults", "-1"}, {"-faults", "Inf"},
		{"-scale", "0"}, {"-scale", "-1"}, {"-scale", "NaN"}, {"-scale", "+Inf"},
	} {
		if _, err := parseExp("lifetime", args); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("experiment %v: err %v, want one naming %s", args, err, args[0])
		}
		if args[0] != "-faults" {
			continue // serve has no -scale
		}
		if _, err := parseServe(args); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("serve %v: err %v, want one naming %s", args, err, args[0])
		}
	}

	o, err := parseExp("reliability", []string{"-faults", "0"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(o.env.In.FaultScales, []float64{0}) || o.env.In.Lifetime.FaultScale != 0 {
		t.Errorf("-faults 0: scales %v, lifetime fault scale %g", o.env.In.FaultScales, o.env.In.Lifetime.FaultScale)
	}
	o, err = parseExp("lifetime", []string{"-faults", "2", "-scale", "0.015625"})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(o.env.In.FaultScales, []float64{0, 0.5, 2, 8}) || o.env.In.Lifetime.FaultScale != 2 {
		t.Errorf("-faults 2: scales %v, lifetime fault scale %g", o.env.In.FaultScales, o.env.In.Lifetime.FaultScale)
	}
	if _, err := parseServe([]string{"-faults", "0"}); err != nil {
		t.Errorf("serve -faults 0: %v", err)
	}
}
