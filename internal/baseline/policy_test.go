package baseline

import (
	"reflect"
	"testing"
	"testing/quick"
)

// attempts runs one read's policy decision into a fresh slice.
func attempts(p ReadPolicy, block, required int) []int {
	return p.AppendAttempts(nil, block, required)
}

func TestFixedWorstCase(t *testing.T) {
	p := FixedWorstCase{Levels: 4}
	if got := attempts(p, 0, 2); len(got) != 1 || got[0] != 4 {
		t.Errorf("attempts(required=2) = %v, want [4]", got)
	}
	if got := attempts(p, 0, 4); len(got) != 1 || got[0] != 4 {
		t.Errorf("attempts(required=4) = %v, want [4]", got)
	}
	// Escalates when even the fixed level is insufficient.
	if got := attempts(p, 0, 6); len(got) != 3 || got[0] != 4 || got[2] != 6 {
		t.Errorf("attempts(required=6) = %v, want [4 5 6]", got)
	}
}

func TestLDPCInSSDProgression(t *testing.T) {
	p := NewLDPCInSSD()
	// First read of a block with requirement 3: tries 0,1,2,3.
	got := attempts(p, 5, 3)
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("attempts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("attempts = %v, want %v", got, want)
		}
	}
	// Second read of the same block: memorized, single attempt.
	if got := attempts(p, 5, 3); len(got) != 1 || got[0] != 3 {
		t.Errorf("memorized attempts = %v, want [3]", got)
	}
	// Lower requirement later still uses the memorized level (memory
	// only rises within an erase cycle).
	if got := attempts(p, 5, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("attempts after memory = %v, want [3]", got)
	}
	// Higher requirement escalates from the memory.
	if got := attempts(p, 5, 5); len(got) != 3 || got[0] != 3 || got[2] != 5 {
		t.Errorf("escalation = %v, want [3 4 5]", got)
	}
	// Other blocks are independent.
	if got := attempts(p, 6, 0); len(got) != 1 || got[0] != 0 {
		t.Errorf("fresh block attempts = %v, want [0]", got)
	}
}

func TestLDPCInSSDForget(t *testing.T) {
	p := NewLDPCInSSD()
	attempts(p, 9, 4)
	p.Forget(9)
	// After erase, the block starts over from hard decision.
	if got := attempts(p, 9, 2); len(got) != 3 || got[0] != 0 {
		t.Errorf("attempts after Forget = %v, want [0 1 2]", got)
	}
}

func TestAdaptiveRetryLadder(t *testing.T) {
	p := NewAdaptiveRetry()
	// Cold block, worst requirement: doubling strides reach 7 within the
	// budget instead of walking all eight levels.
	got := attempts(p, 2, 7)
	want := []int{0, 1, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("attempts = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("attempts = %v, want %v", got, want)
		}
	}
	// Memorized: single attempt.
	if got := attempts(p, 2, 7); len(got) != 1 || got[0] != 7 {
		t.Errorf("memorized attempts = %v, want [7]", got)
	}
	// Lower: a recalibration shrank the requirement; memory follows down.
	p.Lower(2, 1)
	if got := attempts(p, 2, 1); len(got) != 1 || got[0] != 1 {
		t.Errorf("attempts after Lower = %v, want [1]", got)
	}
	// Lower never raises.
	p.Lower(2, 5)
	if got := attempts(p, 2, 1); len(got) != 1 || got[0] != 1 {
		t.Errorf("Lower raised memory: attempts = %v, want [1]", got)
	}
}

// Property: AdaptiveRetry respects its attempt budget of 4 for any
// block state and requirement.
func TestAdaptiveRetryBudget(t *testing.T) {
	f := func(memRaw, reqRaw uint8) bool {
		const budget = 4
		p := NewAdaptiveRetry()
		if m := int(memRaw) % 8; m > 0 {
			attempts(p, 1, m) // seed the memory
		}
		got := attempts(p, 1, int(reqRaw)%8)
		return len(got) >= 1 && len(got) <= budget
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every policy's attempt sequence is non-empty, non-negative,
// strictly increasing, and ends at a level >= required. (The ssd.Read
// fast path indexes attempts[len-1] and charges each level's latency, so
// the simulator depends on every clause.) The sequence is appended after
// whatever dst already holds — the device passes its scratch buffer —
// so a non-empty prefix must survive untouched.
func TestPolicyContract(t *testing.T) {
	policies := []ReadPolicy{
		FixedWorstCase{Levels: 3},
		NewLDPCInSSD(),
		NewAdaptiveRetry(),
	}
	meetsContract := func(got []int, required int) bool {
		if len(got) == 0 || got[0] < 0 {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				return false
			}
		}
		return got[len(got)-1] >= required
	}
	f := func(blockRaw uint8, reqRaw uint8, prefixRaw []int) bool {
		block := int(blockRaw) % 16
		required := int(reqRaw) % 8
		prefix := append(prefixRaw, -1) // never empty
		for _, p := range policies {
			if !meetsContract(p.AppendAttempts(nil, block, required), required) {
				return false
			}
			dst := make([]int, len(prefix), len(prefix)+16) // spare capacity, like the scratch buffer
			copy(dst, prefix)
			got := p.AppendAttempts(dst, block, required)
			if len(got) <= len(prefix) || !reflect.DeepEqual(got[:len(prefix)], prefix) {
				return false
			}
			if !meetsContract(got[len(prefix):], required) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Forget contract: any policy with per-block memory must restart the
	// block at hard-decision sensing after an erase.
	for _, p := range policies {
		forgetter, ok := p.(interface{ Forget(int) })
		if !ok {
			continue
		}
		attempts(p, 3, 7)
		forgetter.Forget(3)
		if got := attempts(p, 3, 0); len(got) != 1 || got[0] != 0 {
			t.Errorf("%T: attempts after Forget = %v, want [0]", p, got)
		}
	}
}
