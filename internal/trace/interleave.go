// Multi-tenant trace interleaving. A TenantSpec describes one tenant's
// traffic — its share of the request budget, arrival shape, read/write
// mix, skew, and a working-set window that may overlap other tenants'
// (the clashing-working-set case the scenario sweeps stress). Interleave
// generates every tenant's stream from its own derived seed and merges
// them into one arrival-sorted request stream, deterministically: the
// merged stream is a pure function of the spec and the master seed.
package trace

import (
	"fmt"
	"math"
	"time"

	"flexlevel/internal/runner"
)

// TenantSpec parameterizes one tenant of an interleaved trace.
type TenantSpec struct {
	Name   string
	Weight int    // share of the total request budget (relative)
	Model  string // arrival shape: steady, burst or diurnal

	ReadRatio  float64
	ZipfS      float64
	Base       uint64 // first LPN of the tenant's window
	WorkingSet uint64 // pages in the window (may overlap other tenants)
	MeanPages  float64
	SeqProb    float64

	Duty      float64       // burst: on fraction of each period, in (0,1)
	Period    time.Duration // burst/diurnal cycle length
	Amplitude float64       // diurnal rate swing, in [0,1)
}

// maxTenantWeight bounds weights so budget-splitting arithmetic stays
// far from int overflow even for maximal request counts.
const maxTenantWeight = 1 << 20

// Validate reports parameter problems, NaN-proof like
// Workload.Validate. The access shape and the arrival model are checked
// by the rules the tenant's generated stream is held to (the workload
// shape check and the ArrivalModel's Validate); the rest is
// tenant-only.
func (t TenantSpec) Validate() error {
	if t.Name == "" {
		return fmt.Errorf("trace: tenant with empty name")
	}
	for _, c := range t.Name {
		if c == ',' || c == '\n' || c == '\r' {
			return fmt.Errorf("trace: tenant name %q contains a separator", t.Name)
		}
	}
	if t.Weight < 1 || t.Weight > maxTenantWeight {
		return fmt.Errorf("trace: tenant %s weight %d out of [1,%d]", t.Name, t.Weight, maxTenantWeight)
	}
	if err := t.workload().validateShape(); err != nil {
		return err
	}
	if t.Base > math.MaxUint64-t.WorkingSet {
		return fmt.Errorf("trace: tenant %s window [%d, +%d) overflows the page space", t.Name, t.Base, t.WorkingSet)
	}
	if _, err := t.arrivals(1); err != nil {
		return err
	}
	// The off-model shape fields still travel through specs and
	// artifacts; keep them finite and non-negative so a spec row is
	// meaningful under any model column.
	if !(t.Duty >= 0 && t.Duty <= 1) {
		return fmt.Errorf("trace: tenant %s duty %g out of [0,1]", t.Name, t.Duty)
	}
	if t.Period < 0 {
		return fmt.Errorf("trace: tenant %s negative period %v", t.Name, t.Period)
	}
	if !(t.Amplitude >= 0 && t.Amplitude < 1) {
		return fmt.Errorf("trace: tenant %s amplitude %g out of [0,1)", t.Name, t.Amplitude)
	}
	return nil
}

// workload is the tenant's access shape as a Workload; the generator
// fields (budget, arrivals, seed) are left for Interleave to fill.
func (t TenantSpec) workload() Workload {
	return Workload{
		Name:       "tenant " + t.Name,
		ReadRatio:  t.ReadRatio,
		ZipfS:      t.ZipfS,
		WorkingSet: t.WorkingSet,
		MeanPages:  t.MeanPages,
		SeqProb:    t.SeqProb,
	}
}

// WindowEnd is the first page past every tenant's window: the working
// set a replay of the tenants' merged stream must cover.
func WindowEnd(tenants []TenantSpec) uint64 {
	var end uint64
	for _, t := range tenants {
		end = max(end, t.Base+t.WorkingSet)
	}
	return end
}

// CheckWindows rejects a tenant set whose windows do not fit a device
// of logicalPages pages, naming the first tenant that runs past it.
// Windows may overlap each other; none may wrap onto the start of the
// device, where it would land on pages other tenants own.
func CheckWindows(tenants []TenantSpec, logicalPages uint64) error {
	for _, t := range tenants {
		if t.Base > logicalPages || t.WorkingSet > logicalPages-t.Base {
			return fmt.Errorf("trace: tenant %s window [%d, +%d) runs past the device's %d logical pages",
				t.Name, t.Base, t.WorkingSet, logicalPages)
		}
	}
	return nil
}

// arrivals builds the tenant's ArrivalModel around its mean gap.
func (t TenantSpec) arrivals(mean time.Duration) (ArrivalModel, error) {
	var m ArrivalModel
	switch t.Model {
	case SteadyModel:
		m = Steady{Mean: mean}
	case BurstModel:
		m = Burst{Mean: mean, Period: t.Period, Duty: t.Duty}
	case DiurnalModel:
		m = Diurnal{Mean: mean, Period: t.Period, Amplitude: t.Amplitude}
	default:
		return nil, fmt.Errorf("trace: tenant %s unknown arrival model %q", t.Name, t.Model)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("trace: tenant %s: %w", t.Name, err)
	}
	return m, nil
}

// InterleaveSpec sizes a multi-tenant trace.
type InterleaveSpec struct {
	Tenants []TenantSpec
	// Requests is the total budget, split across tenants by weight.
	Requests int
	// Interarrive is the mean gap of the merged stream; each tenant
	// arrives at its weight's share of the merged rate.
	Interarrive time.Duration
	// Seed is the master seed; every tenant draws from its own stream
	// seed derived from it and the tenant's name.
	Seed int64
}

// Validate reports spec problems.
func (s InterleaveSpec) Validate() error {
	if len(s.Tenants) == 0 {
		return fmt.Errorf("trace: interleave needs at least one tenant")
	}
	if s.Requests < 1 {
		return fmt.Errorf("trace: interleave needs a positive request budget, have %d", s.Requests)
	}
	if s.Interarrive <= 0 {
		return fmt.Errorf("trace: interleave needs a positive interarrival, have %v", s.Interarrive)
	}
	seen := make(map[string]bool, len(s.Tenants))
	for _, t := range s.Tenants {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("trace: duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// TenantSeed derives a tenant's generator seed from the master seed and
// the tenant's name, as runner.DeriveSeed derives shard seeds. Distinct
// tenants get distinct streams; the same spec and master seed always
// reproduce the same trace.
func TenantSeed(master int64, name string) int64 {
	return runner.DeriveSeed(master, "tenant/"+name)
}

// TenantCounts splits the request budget across tenants proportionally
// to weight. Flooring remainders go to the earliest tenants, so the
// split is deterministic and sums exactly to the budget.
func TenantCounts(spec InterleaveSpec) []int {
	total := 0
	for _, t := range spec.Tenants {
		total += t.Weight
	}
	counts := make([]int, len(spec.Tenants))
	assigned := 0
	for i, t := range spec.Tenants {
		counts[i] = spec.Requests * t.Weight / total
		assigned += counts[i]
	}
	for i := 0; assigned < spec.Requests; i = (i + 1) % len(counts) {
		counts[i]++
		assigned++
	}
	return counts
}

// Interleave generates every tenant's stream and merges them by arrival
// time into one request stream. Ties break by tenant order, so the
// merge — like each per-tenant generator — is deterministic. Request
// LPNs are the tenant's window base plus its in-window page, and
// Request.Tenant carries the tenant's index in the spec.
func Interleave(spec InterleaveSpec) ([]Request, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	counts := TenantCounts(spec)
	totalWeight := 0
	for _, t := range spec.Tenants {
		totalWeight += t.Weight
	}
	streams := make([][]Request, len(spec.Tenants))
	for i, t := range spec.Tenants {
		if counts[i] == 0 {
			continue
		}
		// The tenant arrives at its weight's share of the merged rate:
		// mean gap scales by totalWeight/weight.
		mean := time.Duration(float64(spec.Interarrive) * float64(totalWeight) / float64(t.Weight))
		model, err := t.arrivals(mean)
		if err != nil {
			return nil, err
		}
		w := t.workload()
		w.Interarrive = mean
		w.Requests = counts[i]
		w.Seed = TenantSeed(spec.Seed, t.Name)
		w.Arrivals = model
		reqs, err := w.Generate()
		if err != nil {
			return nil, err
		}
		for j := range reqs {
			reqs[j].LPN += t.Base
			reqs[j].Tenant = i
		}
		streams[i] = reqs
	}
	merged := mergeStreams(streams, spec.Requests)
	if err := CheckStream(merged, WindowEnd(spec.Tenants)); err != nil {
		return nil, fmt.Errorf("trace: interleave: %w", err)
	}
	return merged, nil
}

// mergeStreams merges per-tenant arrival-sorted streams into one, ties
// broken by tenant index. Tenant counts are small, so a linear scan
// over stream heads beats heap bookkeeping.
func mergeStreams(streams [][]Request, total int) []Request {
	merged := make([]Request, 0, total)
	heads := make([]int, len(streams))
	for {
		best := -1
		for i, s := range streams {
			if heads[i] >= len(s) {
				continue
			}
			if best < 0 || s[heads[i]].Arrival < streams[best][heads[best]].Arrival {
				best = i
			}
		}
		if best < 0 {
			return merged
		}
		merged = append(merged, streams[best][heads[best]])
		heads[best]++
	}
}

// TenantNames lists the spec's tenant names in order, the shape the
// per-tenant metrics plumbing consumes.
func TenantNames(tenants []TenantSpec) []string {
	names := make([]string, len(tenants))
	for i, t := range tenants {
		names[i] = t.Name
	}
	return names
}
