package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"
)

// MSR-Cambridge block trace format (SNIA IOTTA): one request per line,
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// with Timestamp in Windows filetime (100ns ticks), Offset and Size in
// bytes, Type "Read"/"Write". The paper's prj-* and web-* volumes come
// from this corpus; ReadMSR lets the simulator replay the real traces
// when a user has them, alongside the built-in synthetic generators.

// msrPageSize is the simulator's logical page in bytes (16KB, Table 6).
const msrPageSize = 16 * 1024

// ReadMSR parses an MSR-Cambridge CSV stream into requests of 16KB
// pages. Arrival times are rebased so the first request arrives at t=0.
// With wrapPages nonzero, LPNs wrap into [0, wrapPages). Lines with an
// unknown Type are rejected; blank lines are skipped.
func ReadMSR(r io.Reader, wrapPages uint64) ([]Request, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var reqs []Request
	var base int64
	first := true
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) < 6 {
			return nil, fmt.Errorf("trace: msr line %d: want >= 6 fields, have %d", line, len(fields))
		}
		ts, err := strconv.ParseInt(strings.TrimSpace(fields[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d: bad timestamp %q", line, fields[0])
		}
		var op Op
		switch strings.ToLower(strings.TrimSpace(fields[3])) {
		case "read":
			op = Read
		case "write":
			op = Write
		default:
			return nil, fmt.Errorf("trace: msr line %d: bad type %q", line, fields[3])
		}
		offset, err := strconv.ParseUint(strings.TrimSpace(fields[4]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d: bad offset %q", line, fields[4])
		}
		size, err := strconv.ParseUint(strings.TrimSpace(fields[5]), 10, 64)
		if err != nil || size == 0 {
			return nil, fmt.Errorf("trace: msr line %d: bad size %q", line, fields[5])
		}
		if offset > math.MaxUint64-(size-1) {
			return nil, fmt.Errorf("trace: msr line %d: offset %d + size %d overflows", line, offset, size)
		}
		if first {
			base = ts
			first = false
		}
		// Windows filetime ticks are 100ns; out-of-order timestamps clamp
		// to trace start. ts-base wraps negative when the true gap
		// exceeds int64.
		var arrival time.Duration
		if ts > base {
			ticks := ts - base
			if ticks < 0 || ticks > math.MaxInt64/100 {
				return nil, fmt.Errorf("trace: msr line %d: timestamp %d is too far after the first (%d)", line, ts, base)
			}
			arrival = time.Duration(ticks) * 100 * time.Nanosecond
		}
		lpn := offset / msrPageSize
		lastByte := offset + size - 1
		pages64 := lastByte/msrPageSize - lpn + 1
		if pages64 > math.MaxInt32 {
			return nil, fmt.Errorf("trace: msr line %d: request spans %d pages", line, pages64)
		}
		pages := int(pages64)
		if wrapPages > 0 {
			lpn %= wrapPages
			if uint64(pages) > wrapPages {
				pages = int(wrapPages)
			}
			if lpn+uint64(pages) > wrapPages {
				lpn = wrapPages - uint64(pages)
			}
		}
		reqs = append(reqs, Request{Arrival: arrival, Op: op, LPN: lpn, Pages: pages})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return reqs, nil
}
