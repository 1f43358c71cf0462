// Package trace defines the block-level request format of the SSD
// simulator and deterministic synthetic generators for the seven
// workloads of the paper's evaluation (fin-2 OLTP, web-1/web-2 search
// engine, prj-1/prj-2 research project volumes, win-1/win-2 PC
// workloads). The real traces are proprietary; the generators reproduce
// the characteristics the paper's results depend on — read/write mix,
// access skew, working-set size and sequentiality (see DESIGN.md §2).
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Op is the request type.
type Op int

const (
	// Read requests data.
	Read Op = iota
	// Write stores data.
	Write
)

func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Request is one block-level I/O.
type Request struct {
	Arrival time.Duration // arrival time since trace start
	Op      Op
	LPN     uint64 // first logical page
	Pages   int    // size in pages
	// Tenant indexes the originating stream of an interleaved
	// multi-tenant trace (see Interleave); 0 for single-tenant traces.
	Tenant int
}

// Workload parameterizes a synthetic trace generator.
type Workload struct {
	Name       string
	Class      string  // human-readable application class
	ReadRatio  float64 // fraction of requests that are reads
	ZipfS      float64 // zipf skew (> 1; larger = more skewed)
	WorkingSet uint64  // pages the workload touches
	MeanPages  float64 // mean request size in pages (geometric)
	SeqProb    float64 // probability a request continues sequentially
	// SplitWriteSet draws write targets from a rotated copy of the zipf
	// distribution so the write-hot pages differ from the read-hot pages
	// (OLTP-style behaviour: frequently read data is rarely rewritten
	// and therefore keeps aging).
	SplitWriteSet bool
	Interarrive   time.Duration
	Requests      int
	Seed          int64

	// Arrivals is the arrival process (steady, burst, diurnal — see
	// ArrivalModel). nil means Steady{Mean: Interarrive}.
	Arrivals ArrivalModel
}

// Validate reports parameter problems.
func (w Workload) Validate() error {
	if err := w.validateShape(); err != nil {
		return err
	}
	if w.Requests <= 0 {
		return fmt.Errorf("trace: %s non-positive request count", w.Name)
	}
	if w.Interarrive <= 0 {
		return fmt.Errorf("trace: %s non-positive interarrival", w.Name)
	}
	if w.Arrivals != nil {
		if err := w.Arrivals.Validate(); err != nil {
			return fmt.Errorf("trace: %s arrivals: %w", w.Name, err)
		}
	}
	return nil
}

// validateShape checks the access-shape parameters a workload shares
// with a tenant. The float comparisons are written in accepting form
// (!(x in range)) so NaN parameters — which compare false against
// everything and used to slip through the rejecting form — are refused
// too.
func (w Workload) validateShape() error {
	if !(w.ReadRatio >= 0 && w.ReadRatio <= 1) {
		return fmt.Errorf("trace: %s read ratio %g out of [0,1]", w.Name, w.ReadRatio)
	}
	if !(w.ZipfS > 1) || math.IsInf(w.ZipfS, 0) {
		return fmt.Errorf("trace: %s zipf s %g must be finite and exceed 1", w.Name, w.ZipfS)
	}
	if w.WorkingSet == 0 {
		return fmt.Errorf("trace: %s empty working set", w.Name)
	}
	if !(w.MeanPages >= 1) || math.IsInf(w.MeanPages, 0) {
		return fmt.Errorf("trace: %s mean pages %g must be finite and at least 1", w.Name, w.MeanPages)
	}
	if !(w.SeqProb >= 0 && w.SeqProb < 1) {
		return fmt.Errorf("trace: %s seq prob %g out of [0,1)", w.Name, w.SeqProb)
	}
	return nil
}

// Generate produces the deterministic request stream for the workload.
// Every emitted request is guaranteed inside the working set with at
// least one page; a violation (a generator bug, not an input problem)
// surfaces as an error rather than corrupting a replay.
func (w Workload) Generate() ([]Request, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(w.Seed))
	zipf := newZipf(rng, w.ZipfS, 1, w.WorkingSet-1)
	reqs := make([]Request, 0, w.Requests)
	arrivals := w.Arrivals
	if arrivals == nil {
		arrivals = Steady{Mean: w.Interarrive}
	}
	clock := time.Duration(0)
	var lastLPN uint64
	var lastPages int
	for i := 0; i < w.Requests; i++ {
		clock += arrivals.Gap(rng, clock)
		op := Write
		if rng.Float64() < w.ReadRatio {
			op = Read
		}
		// Both wraps subtract the working set at most once: a
		// sequential continuation ends at most at the set's end (pages
		// are clamped to it), and a rotated zipf rank stays below twice
		// the set (or wraps uint64 to below it, as the modulo did).
		var lpn uint64
		if i > 0 && rng.Float64() < w.SeqProb {
			lpn = lastLPN + uint64(lastPages)
			if lpn >= w.WorkingSet {
				lpn -= w.WorkingSet
			}
		} else {
			lpn = zipf.Uint64()
			if op == Write && w.SplitWriteSet {
				lpn += w.WorkingSet / 2
				if lpn >= w.WorkingSet {
					lpn -= w.WorkingSet
				}
			}
		}
		// Geometric request size with the configured mean.
		pages := 1
		p := 1 - 1/w.MeanPages
		for rng.Float64() < p && pages < 64 {
			pages++
		}
		pages = clampPages(lpn, pages, w.WorkingSet)
		reqs = append(reqs, Request{Arrival: clock, Op: op, LPN: lpn, Pages: pages})
		lastLPN, lastPages = lpn, pages
	}
	if err := CheckStream(reqs, w.WorkingSet); err != nil {
		return nil, fmt.Errorf("trace: %s: %w", w.Name, err)
	}
	return reqs, nil
}

// clampPages bounds a request tail to its working set. The comparison
// is overflow-safe: the previous form (lpn+pages > ws) wrapped around
// uint64 for page runs near the top of a full-range working set and
// let the request spill past the set — the remainder ws-lpn never
// overflows because generated LPNs are always inside the set.
func clampPages(lpn uint64, pages int, ws uint64) int {
	if rem := ws - lpn; uint64(pages) > rem {
		return int(rem)
	}
	return pages
}

// CheckStream verifies the well-formedness invariants every generated
// (and interleaved) stream must satisfy: arrivals non-decreasing,
// at least one page per request, and — when ws is nonzero — every
// request inside [0, ws). Replay engines assume these; the generators
// enforce them so a shaping bug fails loudly instead of replaying a
// corrupt stream.
func CheckStream(reqs []Request, ws uint64) error {
	var prev time.Duration
	for i, r := range reqs {
		if r.Arrival < prev {
			return fmt.Errorf("request %d: arrival %v before predecessor %v", i, r.Arrival, prev)
		}
		prev = r.Arrival
		if r.Pages < 1 {
			return fmt.Errorf("request %d: %d pages", i, r.Pages)
		}
		if ws > 0 && (r.LPN >= ws || uint64(r.Pages) > ws-r.LPN) {
			return fmt.Errorf("request %d: [%d, +%d) outside working set %d", i, r.LPN, r.Pages, ws)
		}
	}
	return nil
}

// CloseLoop rewrites a request stream for closed-loop replay: every
// arrival time is zeroed, so a queue-depth-bounded host submits each
// request the moment a slot frees. Open-loop arrival spacing measures
// latency under a fixed offered load; a closed loop instead saturates
// the device and measures capacity — the IOPS-vs-queue-depth sweep
// uses it. The input is not modified.
func CloseLoop(reqs []Request) []Request {
	out := make([]Request, len(reqs))
	copy(out, reqs)
	for i := range out {
		out[i].Arrival = 0
	}
	return out
}

// Stats summarizes a request stream.
type Stats struct {
	Requests   int
	Reads      int
	Writes     int
	ReadPages  int
	WritePages int
	Span       time.Duration
}

// Summarize computes Stats for a stream.
func Summarize(reqs []Request) Stats {
	var s Stats
	s.Requests = len(reqs)
	for _, r := range reqs {
		if r.Op == Read {
			s.Reads++
			s.ReadPages += r.Pages
		} else {
			s.Writes++
			s.WritePages += r.Pages
		}
	}
	if len(reqs) > 0 {
		s.Span = reqs[len(reqs)-1].Arrival
	}
	return s
}

// Workloads returns the seven paper workloads, parameterized for the
// scaled simulator (working sets sized against the default 64Ki-page
// logical space; request counts sized for minutes-scale runs).
func Workloads(requests int, workingSet uint64, seed int64) []Workload {
	base := func(name, class string, readRatio, zipfS, meanPages, seqProb float64, ws uint64) Workload {
		return Workload{
			Name: name, Class: class,
			ReadRatio: readRatio, ZipfS: zipfS,
			WorkingSet: ws, MeanPages: meanPages, SeqProb: seqProb,
			SplitWriteSet: true,
			// Larger requests arrive proportionally less often so every
			// workload presents a comparable page rate to the channel.
			Interarrive: time.Duration(2*meanPages) * time.Millisecond,
			Requests:    requests,
			Seed:        seed + int64(len(name))*7919 + int64(name[0]),
		}
	}
	// Traces touch a fraction of the SSD: "full" working sets cover half
	// the logical space, "half" a quarter.
	full := workingSet / 2
	half := workingSet / 4
	return []Workload{
		// OLTP: read-dominant, small random requests, strong skew.
		base("fin-2", "OLTP", 0.82, 1.30, 1.2, 0.05, half),
		// Search engine: almost pure reads, very strong skew, tiny
		// write volume (paper notes web-1/2 have low original writes).
		base("web-1", "web search", 0.99, 1.40, 1.5, 0.05, full),
		base("web-2", "web search", 0.98, 1.35, 1.5, 0.05, full),
		// Research project volumes: write-heavy, moderate skew.
		base("prj-1", "research project", 0.45, 1.10, 2.5, 0.15, full),
		base("prj-2", "research project", 0.55, 1.15, 2.0, 0.15, full),
		// PC workloads: mixed, some sequentiality.
		base("win-1", "PC", 0.60, 1.20, 2.0, 0.30, half),
		base("win-2", "PC", 0.65, 1.20, 1.8, 0.30, half),
	}
}

// ByName returns the named workload from Workloads.
func ByName(name string, requests int, workingSet uint64, seed int64) (Workload, error) {
	for _, w := range Workloads(requests, workingSet, seed) {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("trace: unknown workload %q", name)
}
