package baseline

import (
	"reflect"
	"testing"
	"testing/quick"
)

// attempts runs one read's policy decision into a fresh slice.
func attempts(p ReadPolicy, start, required int) []int {
	return p.AppendAttempts(nil, start, required)
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
	p := LDPCInSSD{}
	// First read of a block with requirement 3: tries 0,1,2,3.
	if got, want := attempts(p, 0, 3), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("attempts = %v, want %v", got, want)
	}
	// A block remembered at the requirement: single attempt.
	if got := attempts(p, 3, 3); len(got) != 1 || got[0] != 3 {
		t.Errorf("memorized attempts = %v, want [3]", got)
	}
	// A lower requirement still senses at the remembered level.
	if got := attempts(p, 3, 1); len(got) != 1 || got[0] != 3 {
		t.Errorf("attempts below memory = %v, want [3]", got)
	}
	// A higher requirement escalates from the memory.
	if got := attempts(p, 3, 5); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Errorf("escalation = %v, want [3 4 5]", got)
	}
}

// TestLDPCInSSDForget: an erase zeroes the block's remembered level, and
// the policy started from that zero begins over at hard decision instead
// of the level the block had reached before.
func TestLDPCInSSDForget(t *testing.T) {
	p := LDPCInSSD{}
	got := attempts(p, 0, 4)
	level := got[len(got)-1]
	if got := attempts(p, level, 2); !reflect.DeepEqual(got, []int{4}) {
		t.Fatalf("attempts before erase = %v, want [4]", got)
	}
	level = 0 // the device's erase hook
	if got := attempts(p, level, 2); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("attempts after erase = %v, want [0 1 2]", got)
	}
}

func TestAdaptiveRetryLadder(t *testing.T) {
	p := AdaptiveRetry{}
	// Cold block, worst requirement: doubling strides reach 7 within the
	// budget instead of walking all eight levels.
	if got, want := attempts(p, 0, 7), []int{0, 1, 3, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("attempts = %v, want %v", got, want)
	}
	// Memorized: single attempt.
	if got := attempts(p, 7, 7); len(got) != 1 || got[0] != 7 {
		t.Errorf("memorized attempts = %v, want [7]", got)
	}
	// From a warm block the budget's last attempt jumps to the requirement.
	if got, want := attempts(p, 1, 7), []int{1, 2, 4, 7}; !reflect.DeepEqual(got, want) {
		t.Errorf("attempts from 1 = %v, want %v", got, want)
	}
}

// Property: AdaptiveRetry respects its attempt budget of 4 for any
// remembered level and requirement.
func TestAdaptiveRetryBudget(t *testing.T) {
	f := func(memRaw, reqRaw uint8) bool {
		const budget = 4
		got := attempts(AdaptiveRetry{}, int(memRaw)%8, int(reqRaw)%8)
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
		LDPCInSSD{},
		AdaptiveRetry{},
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
	f := func(startRaw uint8, reqRaw uint8, prefixRaw []int) bool {
		start := int(startRaw) % 8
		required := int(reqRaw) % 8
		prefix := append(prefixRaw, -1) // never empty
		for _, p := range policies {
			if !meetsContract(p.AppendAttempts(nil, start, required), required) {
				return false
			}
			dst := make([]int, len(prefix), len(prefix)+16) // spare capacity, like the scratch buffer
			copy(dst, prefix)
			got := p.AppendAttempts(dst, start, required)
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
}
