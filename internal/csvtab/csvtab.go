// Package csvtab is the one CSV codec of the module. A format declares
// its column layout once, as a Table: per column the header name, the
// fmt verb that writes it and the rule that parses and range-checks it
// back. One writer and one reader serve every table — the experiment
// artifacts, the trace interchange format and the tenant-spec format.
package csvtab

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Column is one CSV column of a format whose rows have type R.
type Column[R any] struct {
	Name  string
	Verb  string
	Value func(*R) any
	Parse func(*R, string) error
}

// IntMin is an integer column written with %d that parses back only
// values >= lo.
func IntMin[R any, I int | int64](name string, lo int64, field func(*R) *I) Column[R] {
	return Column[R]{Name: name, Verb: "%d",
		Value: func(r *R) any { return *field(r) },
		Parse: func(r *R, s string) error {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil || v < lo {
				return fmt.Errorf("bad %s %q", name, s)
			}
			*field(r) = I(v)
			return nil
		}}
}

// Int is a non-negative integer column.
func Int[R any, I int | int64](name string, field func(*R) *I) Column[R] {
	return IntMin(name, 0, field)
}

// Uint is an unsigned 64-bit integer column.
func Uint[R any](name string, field func(*R) *uint64) Column[R] {
	return Column[R]{Name: name, Verb: "%d",
		Value: func(r *R) any { return *field(r) },
		Parse: func(r *R, s string) (err error) {
			if *field(r), err = strconv.ParseUint(s, 10, 64); err != nil {
				return fmt.Errorf("bad %s %q", name, s)
			}
			return nil
		}}
}

// Micros is a non-negative duration column written in whole
// microseconds (sub-microsecond parts are truncated). It parses back
// only counts whose duration fits a time.Duration.
func Micros[R any](name string, field func(*R) *time.Duration) Column[R] {
	return Column[R]{Name: name, Verb: "%d",
		Value: func(r *R) any { return field(r).Microseconds() },
		Parse: func(r *R, s string) error {
			us, err := strconv.ParseInt(s, 10, 64)
			if err != nil || us < 0 || us > math.MaxInt64/int64(time.Microsecond) {
				return fmt.Errorf("bad %s %q", name, s)
			}
			*field(r) = time.Duration(us) * time.Microsecond
			return nil
		}}
}

// FloatMin is a float column written with verb that parses back only
// values that are not below lo (NaN passes: it compares false).
func FloatMin[R any](name, verb string, lo float64, field func(*R) *float64) Column[R] {
	return Column[R]{Name: name, Verb: verb,
		Value: func(r *R) any { return *field(r) },
		Parse: func(r *R, s string) error {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil || v < lo {
				return fmt.Errorf("bad %s %q", name, s)
			}
			*field(r) = v
			return nil
		}}
}

// Float is a float column with no range limit.
func Float[R any](name, verb string, field func(*R) *float64) Column[R] {
	return FloatMin(name, verb, math.Inf(-1), field)
}

// Str is a non-empty text column; a non-empty oneOf limits it to those
// values.
func Str[R any](name string, oneOf []string, field func(*R) *string) Column[R] {
	return Column[R]{Name: name, Verb: "%s",
		Value: func(r *R) any { return *field(r) },
		Parse: func(r *R, s string) error {
			if s == "" || len(oneOf) > 0 && !slices.Contains(oneOf, s) {
				return fmt.Errorf("bad %s %q", name, s)
			}
			*field(r) = s
			return nil
		}}
}

// Bool is a true/false column.
func Bool[R any](name string, field func(*R) *bool) Column[R] {
	return Column[R]{Name: name, Verb: "%t",
		Value: func(r *R) any { return *field(r) },
		Parse: func(r *R, s string) (err error) {
			if *field(r), err = strconv.ParseBool(s); err != nil {
				return fmt.Errorf("bad %s %q", name, s)
			}
			return nil
		}}
}

// Table is the column layout of one CSV format.
type Table[R any] struct {
	Name string // names the format in reader errors
	Cols []Column[R]
	// Tag, when set, is wrapped into every rejection of malformed
	// input, so callers can tell it from an I/O failure.
	Tag error
}

// Header is the format's header line.
func (t Table[R]) Header() string {
	names := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		names[i] = c.Name
	}
	return strings.Join(names, ",")
}

// Write emits the header and one line per row.
func (t Table[R]) Write(w io.Writer, rows []R) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, t.Header()); err != nil {
		return err
	}
	verbs := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		verbs[i] = c.Verb
	}
	format := strings.Join(verbs, ",") + "\n"
	args := make([]any, len(t.Cols))
	for i := range rows {
		for j, c := range t.Cols {
			args[j] = c.Value(&rows[i])
		}
		if _, err := fmt.Fprintf(bw, format, args...); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses rows back. The header line is required verbatim; blank
// lines are skipped; each field is trimmed of surrounding white space;
// a malformed row fails with its line number. A non-nil check vets
// every parsed row, and its error rejects the input at that row's line.
// Only the columns the format carries are populated.
func (t Table[R]) Read(r io.Reader, check func(*R) error) ([]R, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	header := t.Header()
	line := 0
	sawHeader := false
	var rows []R
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if !sawHeader {
			if text != header {
				return nil, t.reject(fmt.Errorf("line %d: missing header %q", line, header))
			}
			sawHeader = true
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) != len(t.Cols) {
			return nil, t.reject(fmt.Errorf("line %d: want %d fields, have %d", line, len(t.Cols), len(fields)))
		}
		var row R
		for i, c := range t.Cols {
			if err := c.Parse(&row, strings.TrimSpace(fields[i])); err != nil {
				return nil, t.reject(fmt.Errorf("line %d: %w", line, err))
			}
		}
		if check != nil {
			if err := check(&row); err != nil {
				return nil, t.reject(fmt.Errorf("line %d: %w", line, err))
			}
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, t.reject(errors.New("empty input"))
	}
	return rows, nil
}

// reject names the format in a malformed-input error and wraps Tag.
func (t Table[R]) reject(err error) error {
	if t.Tag != nil {
		return fmt.Errorf("%s: %w: %w", t.Name, err, t.Tag)
	}
	return fmt.Errorf("%s: %w", t.Name, err)
}
