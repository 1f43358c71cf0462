package ssd

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"flexlevel/internal/baseline"
	"flexlevel/internal/ftl"
)

// refLDPCInSSD and refAdaptiveRetry are the retry policies as they were
// when each kept its own per-block memory in a map: the reference for the
// device's per-block record.
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

// refPolicy is a map-backed policy as the device used to drive it.
type refPolicy interface {
	AppendAttempts(dst []int, block, required int) []int
	Forget(int)
	Reset()
}

// journaledDevice is an empty small device that can crash and restart.
func journaledDevice(t *testing.T, policy baseline.ReadPolicy) *Device {
	t.Helper()
	cfg := smallConfig()
	cfg.FTL.Journal = ftl.JournalConfig{Enabled: true}
	d, err := newWith(cfg, flatBER(0, 0), policy)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRetryMemoryMatchesMap: over seeded random reads, erases (the FTL's
// erase hook), recalibrations (lower, adaptive only) and power losses
// (Crash and Restart), the device's per-block record gives each policy
// the attempt sequences of its map-backed original.
func TestRetryMemoryMatchesMap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pairs := []struct {
			d      *Device
			want   refPolicy
			lowers bool
		}{
			{journaledDevice(t, baseline.LDPCInSSD{}), &refLDPCInSSD{mem: map[int]int{}}, false},
			{journaledDevice(t, baseline.AdaptiveRetry{}), &refAdaptiveRetry{mem: map[int]int{}, budget: baseline.RetryBudget}, true},
		}
		blocks := pairs[0].d.cfg.FTL.Blocks
		for i := 0; i < 20000; i++ {
			block := rng.Intn(blocks)
			op, level := rng.Intn(100), rng.Intn(10)-1
			for _, pr := range pairs {
				d := pr.d
				switch {
				case op < 80:
					got := d.ram[block].retry(d.policy, []int{-7}, level+1)
					want := pr.want.AppendAttempts([]int{-7}, block, level+1)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d op %d %T: block %d required %d: attempts %v, map memory %v",
							seed, i, d.policy, block, level+1, got, want)
					}
				case op < 92:
					d.ftl.OnErase(block)
					pr.want.Forget(block)
				case op < 99:
					if pr.lowers && level >= 0 {
						d.ram[block].lower(level)
						pr.want.(*refAdaptiveRetry).Lower(block, level)
					}
				default:
					d.Crash()
					if _, err := d.Restart(0); err != nil {
						t.Fatal(err)
					}
					pr.want.Reset()
				}
			}
		}
	}
}

// TestEraseForgetsPolicyMemory: an erase zeroes the block's whole record,
// so a block read after it starts over at hard-decision sensing and the
// nominal references, and the other blocks keep theirs. Forced GC erases
// take the same hook.
func TestEraseForgetsPolicyMemory(t *testing.T) {
	d := newAdaptiveDevice(t, nil)
	victim := agedVictim(t, d)
	vb := victimBlock(d, victim)
	d.Read(time.Second, victim)
	d.ram[vb].retry(d.policy, nil, 4)
	other := (vb + 1) % d.cfg.FTL.Blocks
	d.ram[other].retry(d.policy, nil, 3)
	if d.ram[vb].cal.ShiftMv() == 0 || d.ram[vb].level != 4 {
		t.Fatalf("victim block record %+v: want a calibrated shift and level 4", d.ram[vb])
	}
	d.ftl.OnErase(vb)
	if d.ram[vb] != (blockRAM{}) {
		t.Errorf("erase left record %+v", d.ram[vb])
	}
	if got := d.ram[vb].retry(d.policy, nil, 2); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("attempts after erase = %v, want [0 1 2]", got)
	}
	if d.ram[other].level != 3 {
		t.Errorf("erase of block %d touched block %d's level: %d", vb, other, d.ram[other].level)
	}

	d = newDevice(t, flatBER(9e-3, 0), baseline.LDPCInSSD{})
	for lpn := uint64(0); lpn < 512; lpn++ {
		d.Read(time.Second, lpn)
	}
	for i := 0; i < 4000; i++ {
		if _, err := d.Write(time.Second, uint64(i*3%512), ftl.NormalState); err != nil {
			t.Fatal(err)
		}
	}
	if d.Results().FTL.Erases == 0 {
		t.Fatal("no erases; hook path not exercised")
	}
	for b, r := range d.ram {
		if r.level != 0 && d.ftl.BlockPE(b) > 0 {
			// A block erased after its reads must have forgotten them,
			// unless a read after the erase raised it again (none here).
			t.Errorf("block %d erased %d times still remembers level %d", b, d.ftl.BlockPE(b), r.level)
		}
	}
}
