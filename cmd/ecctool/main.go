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
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Stdout, *frames, *bersFlag, *construction, *seed, *withBCH); err != nil {
		fmt.Fprintln(os.Stderr, "ecctool:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, frames int, bersFlag, construction string, seed int64, withBCH bool) error {
	if frames < 1 {
		return fmt.Errorf("-frames %d: need at least 1 frame per point", frames)
	}
	var bers []float64
	for _, s := range strings.Split(bersFlag, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || !(v > 0 && v < 0.5) {
			return fmt.Errorf("bad BER %q: want a number in (0, 0.5)", s)
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
	fmt.Fprintf(w, "LDPC (%s): n=%d k=%d rate=%.3f, %d frames per point\n",
		construction, code.N, code.K, code.Rate(), frames)
	fmt.Fprintf(w, "%-8s %26s %26s\n", "BER", "flooding FER [95% CI]", "layered FER [95% CI]")
	for _, p := range bers {
		flood, err := ldpc.SimulateFER(code, ldpc.NewDecoder(code), p, frames, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		layer, err := ldpc.SimulateFER(code, ldpc.NewLayeredDecoder(code), p, frames, rand.New(rand.NewSource(seed)))
		if err != nil {
			return err
		}
		fl, fh := ci95(flood)
		ll, lh := ci95(layer)
		fmt.Fprintf(w, "%-8.4f %8.3f [%5.3f, %5.3f] %11.3f [%5.3f, %5.3f]   iters %.1f vs %.1f\n",
			p, flood.FER(), fl, fh, layer.FER(), ll, lh, flood.AvgIters, layer.AvgIters)
	}

	fmt.Fprintf(w, "\nLDPC hard bit-flip (%s):\n", construction)
	if err := hardSweep(w, bers, frames, seed, code.K, code.Encode, ldpc.NewHardDecoder(code).Decode); err != nil {
		return err
	}

	if !withBCH {
		return nil
	}
	bchCode, err := bch.New(8, 8)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nBCH (n=%d, k=%d, t=%d):\n", bchCode.N, bchCode.K, bchCode.T)
	return hardSweep(w, bers, frames, seed, bchCode.K, bchCode.Encode, func(cw []byte) (ldpc.Result, error) {
		res, err := bchCode.Decode(cw)
		return ldpc.Result{Data: res.Data, OK: res.OK}, err
	})
}

// hardSweep prints one hard-decision decoder's FER at every BER. All
// points draw from one rng, so the sweep is one deterministic stream.
func hardSweep(w io.Writer, bers []float64, frames int, seed int64, k int,
	encode func([]byte) ([]byte, error), decode func([]byte) (ldpc.Result, error)) error {
	rng := rand.New(rand.NewSource(seed))
	fmt.Fprintf(w, "%-8s %26s\n", "BER", "FER [95% CI]")
	for _, p := range bers {
		res, err := ldpc.SimulateBSC(k, encode, decode, p, frames, rng)
		if err != nil {
			return err
		}
		lo, hi := ci95(res)
		fmt.Fprintf(w, "%-8.4f %8.3f [%5.3f, %5.3f]\n", p, res.FER(), lo, hi)
	}
	return nil
}

// ci95 is the Wilson 95% interval of a sweep point's frame error rate.
func ci95(r ldpc.FERResult) (lo, hi float64) {
	return stats.ProportionCI95(int64(r.FrameFails), int64(r.Frames))
}
