package trace

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCSV drives the tracegen-format parser with arbitrary input.
// Invariants: the parser never panics, and any input it accepts
// round-trips — writing the parsed requests and parsing them again
// yields the same requests (WriteCSV output is a canonical form that
// ReadCSV is closed over).
func FuzzReadCSV(f *testing.F) {
	f.Add("arrival_us,op,lpn,pages\n0,read,0,1\n10,write,42,4\n")
	f.Add("arrival_us,op,lpn,pages\n")
	f.Add("arrival_us,op,lpn,pages\n\n  5 , read , 7 , 2 \n")
	f.Add("arrival_us,op,lpn,pages\n0,erase,0,1\n")
	f.Add("arrival_us,op,lpn,pages\n-1,read,0,1\n")
	f.Add("arrival_us,op,lpn,pages\n9223372036854775807,read,0,1\n")
	f.Add("no header\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		reqs, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return // rejection is fine; panics and accept-then-corrupt are not
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, reqs); err != nil {
			t.Fatalf("WriteCSV of accepted input: %v", err)
		}
		again, err := ReadCSV(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse of written output: %v\noutput: %q", err, buf.String())
		}
		if len(reqs) != len(again) || (len(reqs) > 0 && !reflect.DeepEqual(reqs, again)) {
			t.Fatalf("round trip changed requests:\n in: %v\nout: %v", reqs, again)
		}
	})
}

// FuzzScenarioConfig drives the scenario tenant-spec parser with
// arbitrary input. Invariants: the parser never panics; every rejection
// is tagged ErrBadSpec; every accepted tenant set validates as an
// interleave spec (so NaN weights, zero working sets, negative duty
// cycles and overflowing windows can never reach the generator); and
// any accepted input round-trips — writing the parsed tenants and
// parsing them again yields the same tenants (WriteScenarioSpec output
// is a canonical form that ReadScenarioSpec is closed over).
func FuzzScenarioConfig(f *testing.F) {
	header := "tenant,weight,model,read_ratio,zipf_s,base,working_set,mean_pages,seq_prob,duty,period_us,amplitude\n"
	f.Add(header + "oltp,4,burst,0.8,1.3,0,4096,1.2,0.05,0.25,20000,0.5\n")
	f.Add(header + "web,2,diurnal,0.98,1.4,2048,8192,1.5,0.05,0.5,50000,0.8\n")
	f.Add(header + "batch,2,steady,0.45,1.1,8192,4096,2.5,0.3,0,0,0\n")
	f.Add(header + "a,1,steady,NaN,1.2,0,16,1,0,0,0,0\n")
	f.Add(header + "a,1,steady,0.5,+Inf,0,16,1,0,0,0,0\n")
	f.Add(header + "a,-1,steady,0.5,1.2,0,16,1,0,0,0,0\n")
	f.Add(header + "a,1,burst,0.5,1.2,0,16,1,0,2,1000,0\n")
	f.Add(header + "a,1,steady,0.5,1.2,18446744073709551615,16,1,0,0,0,0\n")
	f.Add(header + "a,1,steady,0.5,1.2,0,16,1,0,0,99999999999999999999,0\n")
	f.Add(header + "a,1,steady,0.5,1.2,0,16,1,0,0,0,0\na,1,steady,0.5,1.2,0,16,1,0,0,0,0\n")
	f.Add(header)
	f.Add("no header\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		tenants, err := ReadScenarioSpec(strings.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("rejection not tagged ErrBadSpec: %v", err)
			}
			return
		}
		spec := InterleaveSpec{Tenants: tenants, Requests: 1, Interarrive: 1}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted tenants fail interleave validation: %v\ninput: %q", err, data)
		}
		var buf bytes.Buffer
		if err := WriteScenarioSpec(&buf, tenants); err != nil {
			t.Fatalf("WriteScenarioSpec of accepted input: %v", err)
		}
		again, err := ReadScenarioSpec(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reparse of written output: %v\noutput: %q", err, buf.String())
		}
		if !reflect.DeepEqual(tenants, again) {
			t.Fatalf("round trip changed tenants:\n in: %+v\nout: %+v", tenants, again)
		}
	})
}

// FuzzReadMSR drives the MSR-Cambridge parser with arbitrary input.
// Invariants: no panics, and every accepted request is well-formed —
// non-negative arrival, read/write op, at least one page, and LPNs
// inside the wrap window when wrapping is on.
func FuzzReadMSR(f *testing.F) {
	f.Add("128166372003061629,hm,0,Read,2520293376,4096,1331\n128166372016382155,hm,0,Write,2520293376,16384,968\n")
	f.Add("0,h,0,read,0,1,0\n")
	f.Add("5,h,0,Write,18446744073709551615,2,0\n")
	f.Add("5,h,0,Write,0,18446744073709551615,0\n")
	f.Add("1,h,0,Flush,0,4096,0\n")
	f.Add("0,h,0,Read,0,4096,5\n90000000000000000,h,0,Read,0,4096,5\n200000000000000000,h,0,Write,0,4096,5\n")
	f.Add("\n\n")
	f.Fuzz(func(t *testing.T, data string) {
		for _, wrap := range []uint64{0, 1 << 20} {
			reqs, err := ReadMSR(strings.NewReader(data), wrap)
			if err != nil {
				continue
			}
			for i, r := range reqs {
				if r.Arrival < 0 {
					t.Fatalf("request %d: negative arrival %v", i, r.Arrival)
				}
				if r.Op != Read && r.Op != Write {
					t.Fatalf("request %d: bad op %v", i, r.Op)
				}
				if r.Pages < 1 {
					t.Fatalf("request %d: %d pages", i, r.Pages)
				}
				if wrap > 0 && r.LPN+uint64(r.Pages) > wrap {
					t.Fatalf("request %d: [%d, %d) outside wrap window %d",
						i, r.LPN, r.LPN+uint64(r.Pages), wrap)
				}
			}
		}
	})
}
