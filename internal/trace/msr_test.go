package trace

import (
	"strings"
	"testing"
	"time"
)

const msrSample = `128166372003061629,hm,0,Read,32768,16384,153
128166372013061629,hm,0,Write,49152,32768,42
128166372023061629,hm,0,Read,0,4096,10
`

func TestReadMSR(t *testing.T) {
	reqs, err := ReadMSR(strings.NewReader(msrSample), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 3 {
		t.Fatalf("%d requests, want 3", len(reqs))
	}
	// First request: rebased to t=0; offset 32768 at 16KB pages = LPN 2,
	// one page.
	if reqs[0].Arrival != 0 || reqs[0].Op != Read || reqs[0].LPN != 2 || reqs[0].Pages != 1 {
		t.Errorf("req0 = %+v", reqs[0])
	}
	// Second: 1e7 ticks later = 1s; write of 32KB at offset 48KB: LPN 3,
	// 2 pages.
	if reqs[1].Arrival != time.Second || reqs[1].Op != Write || reqs[1].LPN != 3 || reqs[1].Pages != 2 {
		t.Errorf("req1 = %+v", reqs[1])
	}
	// Third: sub-page read still costs one page.
	if reqs[2].LPN != 0 || reqs[2].Pages != 1 {
		t.Errorf("req2 = %+v", reqs[2])
	}
}

func TestReadMSRStraddle(t *testing.T) {
	// A request crossing a page boundary touches both pages.
	in := "1,host,0,Read,16000,1000,5\n"
	reqs, err := ReadMSR(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if reqs[0].LPN != 0 || reqs[0].Pages != 2 {
		t.Errorf("straddling request = %+v, want LPN 0, 2 pages", reqs[0])
	}
}

func TestReadMSRWrap(t *testing.T) {
	in := "1,h,0,Read,163840,16384,5\n" // LPN 10 wraps into [0,4)
	reqs, err := ReadMSR(strings.NewReader(in), 4)
	if err != nil {
		t.Fatal(err)
	}
	if reqs[0].LPN >= 4 {
		t.Errorf("LPN %d not wrapped", reqs[0].LPN)
	}
	if reqs[0].LPN+uint64(reqs[0].Pages) > 4 {
		t.Errorf("request %+v spills past the wrap boundary", reqs[0])
	}
}

func TestReadMSRErrors(t *testing.T) {
	cases := []string{
		"x,h,0,Read,0,4096,5\n",   // bad timestamp
		"1,h,0,Erase,0,4096,5\n",  // bad type
		"1,h,0,Read,x,4096,5\n",   // bad offset
		"1,h,0,Read,0,0,5\n",      // zero size
		"1,h,0,Read,0\n",          // short line
		"1,h,0,Read,0,banana,5\n", // bad size
		// arrival past time.Duration's range: 2e17 ticks is 2e19 ns
		"0,h,0,Read,0,4096,5\n90000000000000000,h,0,Read,0,4096,5\n200000000000000000,h,0,Read,0,4096,5\n",
		// ts-base itself overflows int64
		"-9000000000000000000,h,0,Read,0,4096,5\n9000000000000000000,h,0,Read,0,4096,5\n",
	}
	for i, c := range cases {
		if _, err := ReadMSR(strings.NewReader(c), 0); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
	_, err := ReadMSR(strings.NewReader(cases[len(cases)-2]), 0)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("overflowing arrival: err=%v, want it to name line 3", err)
	}
}

func TestReadMSROutOfOrderClamped(t *testing.T) {
	in := "100,h,0,Read,0,4096,5\n50,h,0,Read,0,4096,5\n"
	reqs, err := ReadMSR(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if reqs[1].Arrival != 0 {
		t.Errorf("out-of-order arrival = %v, want clamp to 0", reqs[1].Arrival)
	}
}

func TestReadMSREmptyAndBlank(t *testing.T) {
	reqs, err := ReadMSR(strings.NewReader("\n\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 0 {
		t.Errorf("%d requests from blank input", len(reqs))
	}
}
