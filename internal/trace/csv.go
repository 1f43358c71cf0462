package trace

import (
	"fmt"
	"io"
	"time"

	"flexlevel/internal/csvtab"
)

// traceCSV is the trace interchange format: one
// "arrival_us,op,lpn,pages" row per request.
var traceCSV = csvtab.Table[Request]{Name: "trace", Cols: []csvtab.Column[Request]{
	csvtab.Micros("arrival_us", func(r *Request) *time.Duration { return &r.Arrival }),
	{Name: "op", Verb: "%s",
		Value: func(r *Request) any { return r.Op },
		Parse: func(r *Request, s string) error {
			switch s {
			case "read":
				r.Op = Read
			case "write":
				r.Op = Write
			default:
				return fmt.Errorf("bad op %q", s)
			}
			return nil
		}},
	csvtab.Uint("lpn", func(r *Request) *uint64 { return &r.LPN }),
	csvtab.IntMin("pages", 1, func(r *Request) *int { return &r.Pages }),
}}

// WriteCSV emits requests in the tracegen interchange format: a header
// line followed by one row per request.
func WriteCSV(w io.Writer, reqs []Request) error { return traceCSV.Write(w, reqs) }

// ReadCSV parses the tracegen interchange format (see csvtab.Table.Read
// for the header, blank-line and line-number rules).
func ReadCSV(r io.Reader) ([]Request, error) { return traceCSV.Read(r, nil) }
