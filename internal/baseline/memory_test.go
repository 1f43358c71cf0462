package baseline

import (
	"math/rand"
	"reflect"
	"testing"
)

// refLDPCInSSD and refAdaptiveRetry are the policies as they were with
// their per-block memory in a map: the reference for the slice memory.
type refLDPCInSSD struct{ mem map[int]int }

func (p *refLDPCInSSD) AppendAttempts(dst []int, block int, required int) []int {
	start := p.mem[block]
	if start >= required {
		return append(dst, start)
	}
	for l := start; l <= required; l++ {
		dst = append(dst, l)
	}
	p.mem[block] = required
	return dst
}

func (p *refLDPCInSSD) Forget(block int) { delete(p.mem, block) }
func (p *refLDPCInSSD) Reset()           { p.mem = map[int]int{} }

type refAdaptiveRetry struct {
	mem    map[int]int
	budget int
}

func (p *refAdaptiveRetry) AppendAttempts(dst []int, block int, required int) []int {
	start := p.mem[block]
	if start >= required {
		return append(dst, start)
	}
	dst = append(dst, start)
	n, stride, lvl := 1, 1, start
	for lvl < required {
		if n >= p.budget-1 || lvl+stride >= required {
			lvl = required
		} else {
			lvl += stride
			stride *= 2
		}
		dst = append(dst, lvl)
		n++
	}
	p.mem[block] = required
	return dst
}

func (p *refAdaptiveRetry) Lower(block, level int) {
	if level < 0 {
		level = 0
	}
	if cur, ok := p.mem[block]; ok && cur > level {
		p.mem[block] = level
	}
}

func (p *refAdaptiveRetry) Forget(block int) { delete(p.mem, block) }
func (p *refAdaptiveRetry) Reset()           { p.mem = map[int]int{} }

// memoryPolicy is what the device drives a retry policy with.
type memoryPolicy interface {
	ReadPolicy
	Forget(int)
	Reset()
}

// TestRetryMemoryMatchesMap: over seeded random reads, erases (Forget),
// recalibrations (Lower, adaptive only) and power losses (Reset), each
// policy's slice-backed memory gives the attempt sequences of the
// map-backed original, on blocks beyond any slot the memory has grown
// to as well as inside it.
func TestRetryMemoryMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pairs := []struct{ got, want memoryPolicy }{
			{NewLDPCInSSD(), &refLDPCInSSD{mem: map[int]int{}}},
			{NewAdaptiveRetry(), &refAdaptiveRetry{mem: map[int]int{}, budget: 4}},
		}
		blocks := 4 + rng.Intn(300)
		for i := 0; i < 20000; i++ {
			block := rng.Intn(blocks)
			if rng.Intn(50) == 0 {
				block = blocks + rng.Intn(4*blocks) // far past the grown slots
			}
			op, level := rng.Intn(100), rng.Intn(10)-1
			for _, pr := range pairs {
				switch {
				case op < 80:
					got := pr.got.AppendAttempts([]int{-7}, block, level+1)
					want := pr.want.AppendAttempts([]int{-7}, block, level+1)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d op %d %T: block %d required %d: attempts %v, map memory %v",
							seed, i, pr.got, block, level+1, got, want)
					}
				case op < 92:
					pr.got.Forget(block)
					pr.want.Forget(block)
				case op < 99:
					if lo, ok := pr.got.(interface{ Lower(int, int) }); ok {
						lo.Lower(block, level)
						pr.want.(*refAdaptiveRetry).Lower(block, level)
					}
				default:
					pr.got.Reset()
					pr.want.Reset()
				}
			}
		}
	}
}
