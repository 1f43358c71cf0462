package ldpc

import (
	"bytes"
	"fmt"
	"math/rand"
)

// FERResult summarizes a frame-error-rate simulation.
type FERResult struct {
	Frames     int
	FrameFails int
	AvgIters   float64
}

// FER returns the frame error rate.
func (r FERResult) FER() float64 {
	if r.Frames == 0 {
		return 0
	}
	return float64(r.FrameFails) / float64(r.Frames)
}

// SimulateFER Monte-Carlo-simulates the min-sum decoder over a binary
// symmetric channel at crossover probability p: SimulateBSC's frames,
// decoded from ±log((1-p)/p) LLRs. It drives the k(L) calibration
// (DESIGN.md) and the decoder-schedule ablation.
func SimulateFER(code *Code, dec *Decoder, p float64, frames int, rng *rand.Rand) (FERResult, error) {
	mag := BSCLLR(p)
	return SimulateBSC(code.K, code.Encode, func(received []byte) (Result, error) {
		return dec.Decode(HardToLLR(received, mag))
	}, p, frames, rng)
}

// SimulateBSC is the binary-symmetric-channel frame loop every decoder
// shares. For each of frames frames it draws k random data bits,
// encodes them, flips each codeword bit with probability p in place
// (encode must return a fresh slice), and hands the received hard bits
// to decode, which must return k data bits. A frame fails when decode
// reports a parity failure or any data bit differs. Data and flips come
// from rng in that order, so one rng shared across calls yields one
// deterministic sweep. A count below one frame is an error: it has no
// frame error rate to report.
func SimulateBSC(k int, encode func(data []byte) ([]byte, error),
	decode func(received []byte) (Result, error), p float64, frames int, rng *rand.Rand) (FERResult, error) {
	if frames < 1 {
		return FERResult{}, fmt.Errorf("ldpc: %d frames, need at least 1", frames)
	}
	res := FERResult{Frames: frames}
	var iterSum int64
	for f := 0; f < frames; f++ {
		data := make([]byte, k)
		for i := range data {
			data[i] = byte(rng.Intn(2))
		}
		cw, err := encode(data)
		if err != nil {
			return FERResult{}, err
		}
		for i := range cw {
			if rng.Float64() < p {
				cw[i] ^= 1
			}
		}
		out, err := decode(cw)
		if err != nil {
			return FERResult{}, err
		}
		iterSum += int64(out.Iterations)
		if !out.OK || !bytes.Equal(out.Data, data) {
			res.FrameFails++
		}
	}
	res.AvgIters = float64(iterSum) / float64(frames)
	return res, nil
}
