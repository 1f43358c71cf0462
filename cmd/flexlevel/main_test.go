package main

import (
	"slices"
	"strconv"
	"strings"
	"testing"

	"flexlevel/internal/exp"
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

// TestServeBucketFlags: serve refuses a NaN, infinite or negative -rate
// or -burst with an error naming the flag instead of reading it as
// "unlimited" or "default"; zero means off.
func TestServeBucketFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-rate", "NaN"}, {"-rate", "-1"}, {"-rate", "+Inf"},
		{"-burst", "NaN"}, {"-burst", "-0.5"}, {"-burst", "Inf"},
	} {
		if _, err := parseServe(args); err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("serve %v: err %v, want one naming %s", args, err, args[0])
		}
	}
	o, err := parseServe([]string{"-rate", "10", "-burst", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Rate != 10 || o.cfg.Burst != 2 {
		t.Errorf("-rate 10 -burst 2: rate %g, burst %g", o.cfg.Rate, o.cfg.Burst)
	}
	if _, err := parseServe([]string{"-rate", "0", "-burst", "0"}); err != nil {
		t.Errorf("serve -rate 0 -burst 0: %v", err)
	}
}

// TestScaleFloor checks that a -scale small enough to clamp the
// lifetime device to its block floor is refused with an error naming
// the flag and the smallest accepted value, while the floor itself and
// the CI scale still map onto DefaultLifetime().Scaled.
func TestScaleFloor(t *testing.T) {
	floor := exp.DefaultLifetime().MinScale()
	for _, s := range []string{"0.01", "1e-9", strconv.FormatFloat(floor*0.999, 'g', -1, 64)} {
		_, err := parseExp("lifetime", []string{"-scale", s})
		if err == nil || !strings.Contains(err.Error(), "-scale") ||
			!strings.Contains(err.Error(), strconv.FormatFloat(floor, 'g', -1, 64)) {
			t.Errorf("-scale %s: err %v, want one naming -scale and %g", s, err, floor)
		}
	}
	for _, f := range []float64{floor, 0.015625} {
		o, err := parseExp("lifetime", []string{"-scale", strconv.FormatFloat(f, 'g', -1, 64)})
		if err != nil {
			t.Fatalf("-scale %g: %v", f, err)
		}
		want := exp.DefaultLifetime().Scaled(f)
		want.FaultScale = 1
		if o.env.In.Lifetime != want {
			t.Errorf("-scale %g: lifetime %+v, want %+v", f, o.env.In.Lifetime, want)
		}
	}
}
