package ldpc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oldDecoder and oldLayeredDecoder are test-local copies of the two
// min-sum decoders as they stood when each schedule had its own type:
// flooding reads a start-of-iteration copy of the posteriors, layered
// the live ones.
type oldDecoder struct {
	code    *Code
	MaxIter int     // BP iteration cap (default 30)
	Alpha   float64 // min-sum normalization factor (default 0.75)

	// scratch, laid out per check in checkVars order
	c2v     [][]float64
	post    []float64
	postOld []float64
	hard    []byte
}

func newOldDecoder(code *Code) *oldDecoder {
	d := &oldDecoder{code: code, MaxIter: 30, Alpha: 0.75}
	d.c2v = make([][]float64, code.M)
	for i := range d.c2v {
		d.c2v[i] = make([]float64, len(code.checkVars[i]))
	}
	d.post = make([]float64, code.N)
	d.postOld = make([]float64, code.N)
	d.hard = make([]byte, code.N)
	return d
}

func (d *oldDecoder) Decode(llr []float64) (Result, error) {
	code := d.code
	if len(llr) != code.N {
		return Result{}, fmt.Errorf("ldpc: llr length %d, want %d", len(llr), code.N)
	}
	// Reset messages and posteriors.
	for i := range d.c2v {
		row := d.c2v[i]
		for j := range row {
			row[j] = 0
		}
	}
	copy(d.post, llr)

	iter := 0
	for ; iter < d.MaxIter; iter++ {
		// Flooding schedule: every check reads the posteriors of the
		// previous iteration (v2c = postOld[v] - c2v_old); updates land
		// in post and only become visible next iteration.
		copy(d.postOld, d.post)
		for ci, vars := range code.checkVars {
			row := d.c2v[ci]
			sign := 1.0
			min1, min2 := math.Inf(1), math.Inf(1)
			minIdx := -1
			for j, v := range vars {
				m := d.postOld[v] - row[j]
				if m < 0 {
					sign = -sign
					m = -m
				}
				if m < min1 {
					min2 = min1
					min1 = m
					minIdx = j
				} else if m < min2 {
					min2 = m
				}
			}
			for j, v := range vars {
				m := d.postOld[v] - row[j]
				s := sign
				if m < 0 {
					s = -s
				}
				mag := min1
				if j == minIdx {
					mag = min2
				}
				newMsg := s * d.Alpha * mag
				// Variable-node update folded in: adjust posterior.
				d.post[v] += newMsg - row[j]
				row[j] = newMsg
			}
		}
		// Hard decision + syndrome.
		for v := 0; v < code.N; v++ {
			if d.post[v] < 0 {
				d.hard[v] = 1
			} else {
				d.hard[v] = 0
			}
		}
		if code.Syndrome(d.hard) {
			iter++
			break
		}
	}
	bits := make([]byte, code.N)
	copy(bits, d.hard)
	return Result{
		Bits:       bits,
		Data:       bits[:code.K],
		OK:         code.Syndrome(bits),
		Iterations: iter,
	}, nil
}

type oldLayeredDecoder struct {
	code    *Code
	MaxIter int
	Alpha   float64

	c2v  [][]float64
	post []float64
	hard []byte
}

func newOldLayeredDecoder(code *Code) *oldLayeredDecoder {
	d := &oldLayeredDecoder{code: code, MaxIter: 30, Alpha: 0.75}
	d.c2v = make([][]float64, code.M)
	for i := range d.c2v {
		d.c2v[i] = make([]float64, len(code.checkVars[i]))
	}
	d.post = make([]float64, code.N)
	d.hard = make([]byte, code.N)
	return d
}

func (d *oldLayeredDecoder) Decode(llr []float64) (Result, error) {
	code := d.code
	if len(llr) != code.N {
		return Result{}, fmt.Errorf("ldpc: llr length %d, want %d", len(llr), code.N)
	}
	for i := range d.c2v {
		row := d.c2v[i]
		for j := range row {
			row[j] = 0
		}
	}
	copy(d.post, llr)

	iter := 0
	for ; iter < d.MaxIter; iter++ {
		for ci, vars := range code.checkVars {
			row := d.c2v[ci]
			sign := 1.0
			min1, min2 := math.Inf(1), math.Inf(1)
			minIdx := -1
			for j, v := range vars {
				m := d.post[v] - row[j]
				if m < 0 {
					sign = -sign
					m = -m
				}
				if m < min1 {
					min2 = min1
					min1 = m
					minIdx = j
				} else if m < min2 {
					min2 = m
				}
			}
			for j, v := range vars {
				m := d.post[v] - row[j]
				s := sign
				if m < 0 {
					s = -s
				}
				mag := min1
				if j == minIdx {
					mag = min2
				}
				newMsg := s * d.Alpha * mag
				d.post[v] += newMsg - row[j]
				row[j] = newMsg
			}
		}
		for v := 0; v < code.N; v++ {
			if d.post[v] < 0 {
				d.hard[v] = 1
			} else {
				d.hard[v] = 0
			}
		}
		if code.Syndrome(d.hard) {
			iter++
			break
		}
	}
	bits := make([]byte, code.N)
	copy(bits, d.hard)
	return Result{
		Bits:       bits,
		Data:       bits[:code.K],
		OK:         code.Syndrome(bits),
		Iterations: iter,
	}, nil
}

// TestScheduleMatchesReference drives the one Decoder under both
// schedules against the reference copies on IRA and QC codes, over
// BSC and Gaussian-soft LLRs at BERs from easy to hopeless, reusing
// each decoder across frames and varying its exported knobs.
func TestScheduleMatchesReference(t *testing.T) {
	type decoder interface {
		Decode(llr []float64) (Result, error)
	}
	rng := rand.New(rand.NewSource(65))
	for _, name := range []string{"ira", "qc"} {
		code := testCode(t)
		if name == "qc" {
			code = qcCode(t)
		}
		flood, layered := NewDecoder(code), NewLayeredDecoder(code)
		oldFlood, oldLayered := newOldDecoder(code), newOldLayeredDecoder(code)
		pairs := []struct {
			schedule  string
			got, want decoder
		}{{"flooding", flood, oldFlood}, {"layered", layered, oldLayered}}
		fails := 0
		for _, p := range []float64{0.002, 0.006, 0.012, 0.03, 0.08} {
			for frame := 0; frame < 6; frame++ {
				maxIter, alpha := []int{30, 8, 50}[frame%3], []float64{0.75, 0.8}[frame%2]
				flood.MaxIter, flood.Alpha = maxIter, alpha
				layered.MaxIter, layered.Alpha = maxIter, alpha
				oldFlood.MaxIter, oldFlood.Alpha = maxIter, alpha
				oldLayered.MaxIter, oldLayered.Alpha = maxIter, alpha

				cw, err := code.Encode(randomBits(code.K, rng))
				if err != nil {
					t.Fatal(err)
				}
				llr := make([]float64, code.N)
				for i, b := range cw {
					mag := BSCLLR(p)
					if frame%2 == 1 { // soft: a spread of reliabilities
						mag *= 0.25 + 1.5*rng.Float64()
					}
					if (b == 1) != (rng.Float64() < p) {
						mag = -mag
					}
					llr[i] = mag
				}
				for _, pr := range pairs {
					got, err := pr.got.Decode(llr)
					if err != nil {
						t.Fatal(err)
					}
					want, err := pr.want.Decode(llr)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bits, want.Bits) || got.OK != want.OK || got.Iterations != want.Iterations {
						t.Fatalf("%s %s p=%g frame %d: got OK=%v iters=%d, want OK=%v iters=%d (bits equal %v)",
							name, pr.schedule, p, frame, got.OK, got.Iterations, want.OK, want.Iterations,
							bytes.Equal(got.Bits, want.Bits))
					}
					if !got.OK {
						fails++
					}
				}
			}
		}
		if fails == 0 {
			t.Errorf("%s: no non-converging frame; the comparison misses the iteration cap", name)
		}
	}
}
