// Command ecctool sweeps the error-correction substrates over a binary
// symmetric channel: the IRA and quasi-cyclic LDPC constructions under
// both min-sum schedules and the hard bit-flipping decoder, and the BCH
// comparator, reporting frame error rates with Wilson 95% confidence
// intervals.
//
//	ecctool -frames 100 -bers 0.002,0.004,0.008
//	ecctool -construction qc -frames 50
package main

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"flexlevel/internal/bch"
	"flexlevel/internal/ldpc"
	"flexlevel/internal/stats"
)

func main() {
	frames := flag.Int("frames", 50, "codewords per point")
	bersFlag := flag.String("bers", "0.002,0.004,0.006,0.010", "comma-separated channel BERs")
	construction := flag.String("construction", "ira", "ldpc construction: ira or qc")
	seed := flag.Int64("seed", 1, "RNG seed")
	withBCH := flag.Bool("bch", true, "include the BCH(255,191) t=8 comparator")
	flag.Parse()
	if err := run(*frames, *bersFlag, *construction, *seed, *withBCH); err != nil {
		fmt.Fprintln(os.Stderr, "ecctool:", err)
		os.Exit(1)
	}
}

func run(frames int, bersFlag, construction string, seed int64, withBCH bool) error {
	var bers []float64
	for _, s := range strings.Split(bersFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || v <= 0 || v >= 0.5 {
			return fmt.Errorf("bad BER %q", s)
		}
		bers = append(bers, v)
	}

	var code *ldpc.Code
	var err error
	switch construction {
	case "ira":
		code, err = ldpc.New(ldpc.TestParams())
	case "qc":
		code, err = ldpc.NewQC(ldpc.QCParams{J: 4, L: 36, Z: 37, Seed: 5})
	default:
		return fmt.Errorf("unknown construction %q", construction)
	}
	if err != nil {
		return err
	}
	fmt.Printf("LDPC (%s): n=%d k=%d rate=%.3f, %d frames per point\n",
		construction, code.N, code.K, code.Rate(), frames)
	fmt.Printf("%-8s %26s %26s\n", "BER", "flooding FER [95% CI]", "layered FER [95% CI]")
	for _, p := range bers {
		flood, err := ldpc.SimulateFER(code, ldpc.NewDecoder(code), p, frames, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		layer, err := ldpc.SimulateFER(code, ldpc.NewLayeredDecoder(code), p, frames, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		fl, fh := stats.ProportionCI95(int64(flood.FrameFails), int64(flood.Frames))
		ll, lh := stats.ProportionCI95(int64(layer.FrameFails), int64(layer.Frames))
		fmt.Printf("%-8.4f %8.3f [%5.3f, %5.3f] %11.3f [%5.3f, %5.3f]   iters %.1f vs %.1f\n",
			p, flood.FER(), fl, fh, layer.FER(), ll, lh, flood.AvgIters, layer.AvgIters)
	}

	fmt.Printf("\nLDPC hard bit-flip (%s):\n", construction)
	hard := ldpc.NewHardDecoder(code)
	if err := hardFER(bers, frames, code.K, rand.New(rand.NewSource(seed)), code.Encode,
		func(cw []byte) ([]byte, bool, error) {
			res, err := hard.Decode(cw)
			return res.Data, res.OK, err
		}); err != nil {
		return err
	}

	if !withBCH {
		return nil
	}
	bchCode, err := bch.New(8, 8)
	if err != nil {
		return err
	}
	fmt.Printf("\nBCH (n=%d, k=%d, t=%d):\n", bchCode.N, bchCode.K, bchCode.T)
	return hardFER(bers, frames, bchCode.K, rand.New(rand.NewSource(seed)), bchCode.Encode,
		func(cw []byte) ([]byte, bool, error) {
			res, err := bchCode.Decode(cw)
			return res.Data, res.OK, err
		})
}

// hardFER is the hard-decision frame loop: for each BER it encodes
// frames random k-bit words, flips each codeword bit with probability
// BER, decodes, and prints the frame error rate with its 95% interval.
// Data and flips are drawn from one rng across the whole sweep.
func hardFER(bers []float64, frames, k int, rng *rand.Rand,
	encode func([]byte) ([]byte, error), decode func([]byte) ([]byte, bool, error)) error {
	fmt.Printf("%-8s %26s\n", "BER", "FER [95% CI]")
	for _, p := range bers {
		fails := 0
		for f := 0; f < frames; f++ {
			data := make([]byte, k)
			for i := range data {
				data[i] = byte(rng.Intn(2))
			}
			cw, err := encode(data)
			if err != nil {
				return err
			}
			for i := range cw {
				if rng.Float64() < p {
					cw[i] ^= 1
				}
			}
			got, ok, err := decode(cw)
			if err != nil {
				return err
			}
			if !ok || !bytes.Equal(got, data) {
				fails++
			}
		}
		lo, hi := stats.ProportionCI95(int64(fails), int64(frames))
		fmt.Printf("%-8.4f %8.3f [%5.3f, %5.3f]\n", p, float64(fails)/float64(frames), lo, hi)
	}
	return nil
}
