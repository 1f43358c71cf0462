// The scenario tenant-spec interchange format: one CSV row per tenant,
// so scenario tenant sets can be versioned, hand-edited and fed to
// `flexlevel scenario -tenants`. ReadScenarioSpec is the validating
// parser (fuzzed by FuzzScenarioConfig); WriteScenarioSpec emits the
// canonical form the parser is closed over.
package trace

import (
	"errors"
	"fmt"
	"io"
	"time"

	"flexlevel/internal/csvtab"
)

// ErrBadSpec tags every scenario-spec rejection, so callers can
// distinguish a malformed spec (errors.Is(err, ErrBadSpec)) from I/O
// failures.
var ErrBadSpec = errors.New("bad scenario spec")

// specCSV is the column layout of the tenant spec format. The range
// rules live in TenantSpec.Validate, which ReadScenarioSpec runs on
// every row.
var specCSV = csvtab.Table[TenantSpec]{Name: "scenario spec", Tag: ErrBadSpec, Cols: []csvtab.Column[TenantSpec]{
	csvtab.Str("tenant", nil, func(t *TenantSpec) *string { return &t.Name }),
	csvtab.Int("weight", func(t *TenantSpec) *int { return &t.Weight }),
	csvtab.Str("model", nil, func(t *TenantSpec) *string { return &t.Model }),
	csvtab.Float("read_ratio", "%g", func(t *TenantSpec) *float64 { return &t.ReadRatio }),
	csvtab.Float("zipf_s", "%g", func(t *TenantSpec) *float64 { return &t.ZipfS }),
	csvtab.Uint("base", func(t *TenantSpec) *uint64 { return &t.Base }),
	csvtab.Uint("working_set", func(t *TenantSpec) *uint64 { return &t.WorkingSet }),
	csvtab.Float("mean_pages", "%g", func(t *TenantSpec) *float64 { return &t.MeanPages }),
	csvtab.Float("seq_prob", "%g", func(t *TenantSpec) *float64 { return &t.SeqProb }),
	csvtab.Float("duty", "%g", func(t *TenantSpec) *float64 { return &t.Duty }),
	csvtab.Micros("period_us", func(t *TenantSpec) *time.Duration { return &t.Period }),
	csvtab.Float("amplitude", "%g", func(t *TenantSpec) *float64 { return &t.Amplitude }),
}}

// WriteScenarioSpec emits tenants in the spec interchange format.
func WriteScenarioSpec(w io.Writer, tenants []TenantSpec) error {
	return specCSV.Write(w, tenants)
}

// ReadScenarioSpec parses the tenant spec format. Every accepted tenant
// satisfies TenantSpec.Validate (NaN, infinite, negative and
// overflowing fields are all rejected) and names are unique. Every
// rejection wraps ErrBadSpec; a rejected row names its line number.
func ReadScenarioSpec(r io.Reader) ([]TenantSpec, error) {
	seen := map[string]bool{}
	tenants, err := specCSV.Read(r, func(t *TenantSpec) error {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("duplicate tenant %q", t.Name)
		}
		seen[t.Name] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("trace: scenario spec has no tenants: %w", ErrBadSpec)
	}
	return tenants, nil
}
