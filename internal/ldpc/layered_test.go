package ldpc

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestLayeredDecodeCorrects(t *testing.T) {
	c := testCode(t)
	d := NewLayeredDecoder(c)
	rng := rand.New(rand.NewSource(61))
	success := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		data := randomBits(c.K, rng)
		cw, _ := c.Encode(data)
		noisy := make([]byte, len(cw))
		copy(noisy, cw)
		for i := 0; i < 7; i++ {
			noisy[rng.Intn(c.N)] ^= 1
		}
		res, err := d.Decode(HardToLLR(noisy, BSCLLR(0.006)))
		if err != nil {
			t.Fatal(err)
		}
		if res.OK && bytes.Equal(res.Data, data) {
			success++
		}
	}
	if success < trials-2 {
		t.Errorf("layered decode corrected %d/%d", success, trials)
	}
}

func TestLayeredConvergesFasterThanFlooding(t *testing.T) {
	// The point of the serial schedule: fewer iterations on average.
	c := testCode(t)
	flood := NewDecoder(c)
	layered := NewLayeredDecoder(c)
	rng := rand.New(rand.NewSource(62))
	var floodIters, layeredIters int
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		data := randomBits(c.K, rng)
		cw, _ := c.Encode(data)
		noisy := make([]byte, len(cw))
		copy(noisy, cw)
		for i := 0; i < 6; i++ {
			noisy[rng.Intn(c.N)] ^= 1
		}
		llr := HardToLLR(noisy, BSCLLR(0.005))
		fr, err := flood.Decode(llr)
		if err != nil {
			t.Fatal(err)
		}
		lr, err := layered.Decode(llr)
		if err != nil {
			t.Fatal(err)
		}
		if fr.OK {
			floodIters += fr.Iterations
		}
		if lr.OK {
			layeredIters += lr.Iterations
		}
	}
	if layeredIters >= floodIters {
		t.Errorf("layered used %d total iterations vs flooding %d; serial should converge faster",
			layeredIters, floodIters)
	}
}

func TestLayeredWrongLength(t *testing.T) {
	c := testCode(t)
	d := NewLayeredDecoder(c)
	if _, err := d.Decode(make([]float64, 5)); err == nil {
		t.Error("wrong LLR length accepted")
	}
}

func TestSimulateFER(t *testing.T) {
	c := testCode(t)
	rng := rand.New(rand.NewSource(63))
	// Low BER: essentially no frame errors.
	low, err := SimulateFER(c, NewDecoder(c), 0.001, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	if low.FER() > 0.1 {
		t.Errorf("FER at BER 1e-3 = %g, want near 0", low.FER())
	}
	// Hopeless BER: everything fails.
	high, err := SimulateFER(c, NewDecoder(c), 0.08, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if high.FER() < 0.9 {
		t.Errorf("FER at BER 8e-2 = %g, want near 1", high.FER())
	}
	if high.FrameFails <= low.FrameFails {
		t.Errorf("frame failures should grow with channel BER: %d vs %d", low.FrameFails, high.FrameFails)
	}
	if low.Frames != 30 || high.Frames != 20 {
		t.Errorf("accounting wrong: %+v, %+v", low, high)
	}
	if low.AvgIters <= 0 {
		t.Error("average iterations not tracked")
	}
	// A zero-value result (no frames run) reports zeros.
	if empty := (FERResult{}); empty.FER() != 0 {
		t.Error("empty result should report zeros")
	}
}

// TestSimulateRejectsNoFrames: a run of fewer than one frame is an
// error from both frame-loop entry points, never a result with a
// negative frame count.
func TestSimulateRejectsNoFrames(t *testing.T) {
	c := testCode(t)
	for _, frames := range []int{0, -3} {
		rng := rand.New(rand.NewSource(1))
		if res, err := SimulateFER(c, NewDecoder(c), 0.01, frames, rng); err == nil {
			t.Errorf("SimulateFER with %d frames: %+v, want an error", frames, res)
		}
		decode := func(received []byte) (Result, error) {
			return Result{Data: received[:c.K], OK: true}, nil
		}
		if res, err := SimulateBSC(c.K, c.Encode, decode, 0.01, frames, rng); err == nil {
			t.Errorf("SimulateBSC with %d frames: %+v, want an error", frames, res)
		}
	}
}

func TestFERThresholdOrdering(t *testing.T) {
	// FER must be monotone in channel BER across the waterfall.
	c := testCode(t)
	rng := rand.New(rand.NewSource(64))
	prev := -1.0
	for _, p := range []float64{0.002, 0.01, 0.03, 0.06} {
		res, err := SimulateFER(c, NewDecoder(c), p, 25, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.FER() < prev-0.15 { // allow MC noise
			t.Errorf("FER dropped from %g to %g at p=%g", prev, res.FER(), p)
		}
		prev = res.FER()
	}
}

// TestSimulateBSCFrameOutcomes drives the shared frame loop with
// scripted decoders: a frame fails on a parity failure even when the
// data came back right, and on wrong data even when parity passed.
func TestSimulateBSCFrameOutcomes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ok, flip  bool
		wantFails int
	}{
		{"clean", true, false, 0},
		{"parity failure, right data", false, false, 5},
		{"wrong data, parity passed", true, true, 5},
	} {
		var sent []byte
		encode := func(data []byte) ([]byte, error) {
			sent = append(sent[:0], data...)
			return append([]byte(nil), data...), nil
		}
		decode := func(received []byte) (Result, error) {
			data := append([]byte(nil), sent...)
			if tc.flip {
				data[0] ^= 1
			}
			return Result{Data: data, OK: tc.ok, Iterations: 2}, nil
		}
		res, err := SimulateBSC(8, encode, decode, 0.3, 5, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Frames != 5 || res.FrameFails != tc.wantFails || res.AvgIters != 2 {
			t.Errorf("%s: %+v, want %d fails of 5 frames", tc.name, res, tc.wantFails)
		}
	}
}
