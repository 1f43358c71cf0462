package exp

import (
	"fmt"
	"io"
	"os"

	"flexlevel/internal/sensing"
	"flexlevel/internal/trace"
)

// Sweep is one registered experiment: its subcommand name and the run
// that computes it, prints its text to Env.Out and hands each artifact
// to Env.Emit.
type Sweep struct {
	Name string
	Run  func(*Env) error
}

// Inputs are what the sweeps read beyond SimConfig.
type Inputs struct {
	CrashPoints int            // crash: power cuts across the run
	FaultScales []float64      // reliability: fault-rate multipliers
	Lifetime    LifetimeParams // lifetime: device scale and fault scale
	Tenants     string         // scenario: tenant spec file; "" is the built-in mix
}

// Env is one invocation of the registry: the sweep config and inputs,
// where text and artifacts go, and the Fig. 6(a) grids computed so
// far, which fig6a, fig6b and fig7 share.
type Env struct {
	Sim SimConfig
	In  Inputs
	Out io.Writer
	// Emit receives each named artifact ("fig5.csv",
	// "crash_summary.json", ...) with the function that renders it.
	Emit func(name string, write func(io.Writer) error) error

	grids map[int]*Fig6aData
}

// grid returns the Fig. 6(a) grid at P/E pe, replaying it at most once
// per Env. Only a completed grid is kept: a failed or cancelled one is
// replayed again on the next request.
func (e *Env) grid(pe int) (*Fig6aData, error) {
	if d := e.grids[pe]; d != nil {
		return d, nil
	}
	cfg := e.Sim
	cfg.PE = pe
	d, err := Fig6a(cfg)
	if err != nil {
		return nil, err
	}
	if e.grids == nil {
		e.grids = map[int]*Fig6aData{}
	}
	e.grids[pe] = d
	return d, nil
}

// Sweeps is the experiment registry in usage order; flexlevel all runs
// it in this order.
var Sweeps = []Sweep{
	table("fig5", func(e *Env) ([]Fig5Row, error) { return Fig5(e.Sim) }, PrintFig5, fig5CSV.Write),
	table("table4", func(e *Env) ([]Table4Cell, error) { return Table4(e.Sim) }, PrintTable4, WriteTable4CSV),
	table("table5", func(*Env) ([]Table5Row, error) { return Table5(sensing.DefaultRule()) }, PrintTable5, WriteTable5CSV),
	table("fig6a", func(e *Env) (*Fig6aData, error) { return e.grid(e.Sim.PE) }, PrintFig6a, WriteFig6aCSV),
	table("fig6b", func(e *Env) ([]Fig6bPoint, error) { return e.fig6b([]int{4000, 5000, 6000}) }, PrintFig6b, nil),
	{"fig7", func(e *Env) error {
		d, err := e.grid(e.Sim.PE)
		if err != nil {
			return err
		}
		rows := Fig7(d)
		PrintFig7(e.Out, e.Sim.PE, rows)
		return e.Emit("fig7.csv", func(w io.Writer) error { return fig7CSV.Write(w, rows) })
	}},
	{"ablations", ablations},
	table("ecc", func(e *Env) ([]HardECCRow, error) { return HardECCStudy(e.Sim) }, PrintHardECC, nil),
	{"retshare", func(e *Env) error {
		rows, avg, err := RetentionShares(e.Sim)
		if err == nil {
			PrintRetentionShares(e.Out, rows, avg)
		}
		return err
	}},
	table("reliability", func(e *Env) ([]ReliabilityRow, error) { return Reliability(e.Sim, e.In.FaultScales) },
		PrintReliability, reliabilityCSV.Write),
	{"crash", func(e *Env) error {
		data, err := CrashRecovery(e.Sim, e.In.CrashPoints)
		if err != nil {
			return err
		}
		PrintCrash(e.Out, data)
		if err := e.Emit("crash.csv", func(w io.Writer) error { return crashCSV.Write(w, data.Rows) }); err != nil {
			return err
		}
		return e.Emit("crash_summary.json", data.Summary.WriteJSON)
	}},
	table("throughput", func(e *Env) ([]ThroughputRow, error) { return Throughput(e.Sim) }, PrintThroughput, throughputCSV.Write),
	table("adaptive", func(e *Env) ([]AdaptiveRow, error) { return Adaptive(e.Sim) }, PrintAdaptive, adaptiveCSV.Write),
	table("scenario", func(e *Env) ([]ScenarioRow, error) {
		tenants, err := LoadTenants(e.In.Tenants)
		if err != nil {
			return nil, err
		}
		return Scenario(e.Sim, tenants)
	}, PrintScenario, scenarioCSV.Write),
	table("lifetime", func(e *Env) ([]LifetimeRow, error) { return Lifetime(e.Sim, e.In.Lifetime) }, PrintLifetime, lifetimeCSV.Write),
}

// Lookup finds a registered sweep by name.
func Lookup(name string) (Sweep, bool) {
	for _, s := range Sweeps {
		if s.Name == name {
			return s, true
		}
	}
	return Sweep{}, false
}

// table registers the common shape: compute a result, print it, and
// emit it as <name>.csv (no artifact when write is nil).
func table[R any](name string, run func(*Env) (R, error), print func(io.Writer, R), write func(io.Writer, R) error) Sweep {
	return Sweep{name, func(e *Env) error {
		r, err := run(e)
		if err != nil {
			return err
		}
		print(e.Out, r)
		if write == nil {
			return nil
		}
		return e.Emit(name+".csv", func(w io.Writer) error { return write(w, r) })
	}}
}

// ablations runs the design-choice studies of DESIGN.md §5 in turn,
// a blank line between them.
func ablations(e *Env) error {
	c := e.Sim
	for i, study := range []Sweep{
		table("encoding", func(*Env) ([]AblationEncoding, error) { return EncodingAblation(c) }, PrintEncodingAblation, nil),
		table("margins", func(*Env) ([]AblationMargin, error) { return MarginAblation(c) }, PrintMarginAblation, nil),
		table("hlo", func(*Env) ([]AblationHLO, error) { return HLOAblation(c) }, PrintHLOAblation, nil),
		table("pool", func(*Env) ([]AblationPool, error) { return PoolSweep(c, []float64{0.001, 0.005, 0.02, 0.25}) },
			PrintPoolSweep, nil),
		table("reftune", func(*Env) ([]RefTuneRow, error) { return RefTuneAblation(c, c.PE, 720) },
			func(w io.Writer, rows []RefTuneRow) { PrintRefTune(w, c.PE, 720, rows) }, nil),
		table("scrub", func(*Env) ([]AblationScrub, error) { return ScrubAblation(c) }, PrintScrubAblation, nil),
		table("channels", func(*Env) ([]AblationChannels, error) { return ChannelAblation(c, []int{1, 2, 4, 8}) },
			PrintChannelAblation, nil),
	} {
		if i > 0 {
			fmt.Fprintln(e.Out)
		}
		if err := study.Run(e); err != nil {
			return err
		}
	}
	return nil
}

// LoadTenants reads a scenario tenant spec file, or returns nil (the
// built-in default mix) when no file is given.
func LoadTenants(path string) ([]trace.TenantSpec, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tenants, err := trace.ReadScenarioSpec(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tenants, nil
}
