// The HTTP surface of the block service.
//
//	GET  /v1/read?tenant=oltp&lpn=12&pages=2[&deadline_us=500]
//	POST /v1/write?tenant=oltp&lpn=12&pages=2[&deadline_us=500]
//	GET  /metrics
//	GET  /healthz
//
// LPNs are tenant-relative: each tenant addresses [0, WorkingSet) of
// its own window. Success returns 200 with the simulated latency (and,
// for writes, the tenant's acknowledgement sequence — assigned only
// after the device accepted the write, so an acked sequence number is a
// durability promise the chaos tests audit). Errors carry a typed code:
// 429 shed/queue_full (with Retry-After), 503 read_only/power_loss/
// draining (retryable), 504 deadline_exceeded, 400 bad_request.
package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// ReadResponse / WriteResponse are the success bodies.
type ReadResponse struct {
	Tenant    string  `json:"tenant"`
	LPN       uint64  `json:"lpn"`
	Pages     int     `json:"pages"`
	LatencyUS float64 `json:"latency_us"`
}

type WriteResponse struct {
	Tenant    string  `json:"tenant"`
	LPN       uint64  `json:"lpn"`
	Pages     int     `json:"pages"`
	LatencyUS float64 `json:"latency_us"`
	Seq       uint64  `json:"seq"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Code         string  `json:"error"`
	Message      string  `json:"message"`
	RetryAfterUS float64 `json:"retry_after_us,omitempty"`
}

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/read", s.handleIO(false))
	mux.HandleFunc("/v1/write", s.handleIO(true))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, res opResult) {
	body := ErrorResponse{Code: res.code, Message: res.message}
	if res.retryAfter > 0 {
		body.RetryAfterUS = float64(res.retryAfter.Microseconds())
		// Retry-After is whole seconds; keep at least 1 so clients that
		// only honour the standard header still back off.
		secs := int64(math.Ceil(res.retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, res.status, body)
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, ErrorResponse{
		Code:    CodeBadRequest,
		Message: fmt.Sprintf(format, args...),
	})
}

// parseOp extracts and validates the op parameters common to read and
// write.
func (s *Server) parseOp(r *http.Request, write bool) (*op, string, error) {
	q := r.URL.Query()
	name := q.Get("tenant")
	idx, ok := s.Tenant(name)
	if !ok {
		return nil, name, fmt.Errorf("unknown tenant %q", name)
	}
	spec := s.cfg.Tenants[idx]
	lpn, err := strconv.ParseUint(q.Get("lpn"), 10, 64)
	if err != nil {
		return nil, name, fmt.Errorf("bad lpn %q", q.Get("lpn"))
	}
	pages := 1
	if p := q.Get("pages"); p != "" {
		if pages, err = strconv.Atoi(p); err != nil || pages < 1 {
			return nil, name, fmt.Errorf("bad pages %q", p)
		}
	}
	if pages > DefaultMaxPages {
		return nil, name, fmt.Errorf("pages %d exceeds limit %d", pages, DefaultMaxPages)
	}
	if lpn >= spec.WorkingSet || uint64(pages) > spec.WorkingSet-lpn {
		return nil, name, fmt.Errorf("range [%d,+%d) outside tenant window of %d pages", lpn, pages, spec.WorkingSet)
	}
	o := &op{tenant: idx, write: write, lpn: lpn, pages: pages}
	if d := q.Get("deadline_us"); d != "" {
		// A deadline that rounds to 0 ns or overflows int64 is refused,
		// not read as "none" and replaced by the server default.
		us, err := strconv.ParseFloat(d, 64)
		ns := us * float64(time.Microsecond)
		if err != nil || !(ns >= 1 && ns < 1<<63) {
			return nil, name, fmt.Errorf("bad deadline_us %q", d)
		}
		o.deadline = time.Duration(ns)
	}
	return o, name, nil
}

func (s *Server) handleIO(write bool) http.HandlerFunc {
	wantMethod := http.MethodGet
	if write {
		wantMethod = http.MethodPost
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != wantMethod {
			w.Header().Set("Allow", wantMethod)
			writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{
				Code: CodeBadRequest, Message: "method not allowed",
			})
			return
		}
		o, tenant, err := s.parseOp(r, write)
		if err != nil {
			badRequest(w, "%v", err)
			return
		}
		res := s.do(r.Context(), o)
		if res.status != http.StatusOK {
			writeError(w, res)
			return
		}
		latUS := float64(res.latency) / float64(time.Microsecond)
		if write {
			writeJSON(w, http.StatusOK, WriteResponse{
				Tenant: tenant, LPN: o.lpn, Pages: o.pages,
				LatencyUS: latUS, Seq: res.seq,
			})
			return
		}
		writeJSON(w, http.StatusOK, ReadResponse{
			Tenant: tenant, LPN: o.lpn, Pages: o.pages, LatencyUS: latUS,
		})
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// healthStatus is the /healthz body.
type healthStatus struct {
	Status   string `json:"status"` // ok | degraded | draining
	Draining bool   `json:"draining"`
	Degraded bool   `json:"degraded"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := healthStatus{Status: "ok"}
	s.mu.Lock()
	for _, e := range s.shards {
		if e.device.Degraded {
			h.Degraded = true
			// Degraded is not down: reads still flow (on every shard),
			// so health stays 200 with the condition surfaced for
			// operators.
			h.Status = "degraded"
		}
	}
	h.Draining = s.draining
	s.mu.Unlock()
	status := http.StatusOK
	if h.Draining {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}
