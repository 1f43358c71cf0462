package ssd

import (
	"testing"
	"time"

	"flexlevel/internal/baseline"
)

func TestMultiChannelParallelism(t *testing.T) {
	// Two simultaneous reads of pages on different channels must not
	// queue behind each other; on the same channel they must.
	cfg := smallConfig()
	cfg.Channels = 4
	d, err := newWith(cfg, flatBER(0, 0), baseline.FixedWorstCase{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(512); err != nil {
		t.Fatal(err)
	}
	// Preload fills blocks sequentially: lpn 0 and lpn 16 (16 pages per
	// block) live in consecutive blocks, hence different channels.
	r1, _ := d.Read(time.Second, 0)
	r2, _ := d.Read(time.Second, 16)
	if r2 != r1 {
		t.Errorf("reads on different channels: %v then %v, want equal (parallel)", r1, r2)
	}
	// Same-channel pages (same block) serialize.
	r3, _ := d.Read(2*time.Second, 1)
	r4, _ := d.Read(2*time.Second, 2)
	if r4 <= r3 {
		t.Errorf("same-channel reads: %v then %v, want queuing", r3, r4)
	}
}

func TestChannelsDefaultSingle(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 0
	d, err := newWith(cfg, flatBER(0, 0), baseline.FixedWorstCase{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.chanFree); got != 1 {
		t.Errorf("Channels=0 created %d channels, want 1", got)
	}
	bad := smallConfig()
	bad.Channels = -1
	if _, err := newWith(bad, flatBER(0, 0), baseline.FixedWorstCase{}); err == nil {
		t.Error("negative channel count accepted")
	}
}

func TestMultiChannelThroughput(t *testing.T) {
	// A burst of reads spread over many blocks completes faster with
	// more channels.
	run := func(channels int) time.Duration {
		cfg := smallConfig()
		cfg.Channels = channels
		d, err := newWith(cfg, flatBER(0, 0), baseline.FixedWorstCase{})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Preload(512); err != nil {
			t.Fatal(err)
		}
		for lpn := uint64(0); lpn < 512; lpn += 16 { // one per block
			d.Read(0, lpn)
		}
		return d.Now()
	}
	single := run(1)
	quad := run(4)
	if quad >= single {
		t.Errorf("4-channel burst took %v, single-channel %v; want speedup", quad, single)
	}
}

func TestReadSamplePercentiles(t *testing.T) {
	d := newDevice(t, flatBER(0, 0), baseline.FixedWorstCase{})
	for i := 0; i < 100; i++ {
		d.Read(time.Duration(i)*time.Millisecond, uint64(i))
	}
	res := d.Results()
	if res.ReadSample.N() != 100 {
		t.Fatalf("sample holds %d, want 100", res.ReadSample.N())
	}
	p99 := res.ReadSample.Percentiles(99)[0]
	if p99 < res.ReadResp.Mean() {
		t.Errorf("p99 %g below mean %g", p99, res.ReadResp.Mean())
	}
}

// TestSampleCapBoundsReadSample: with SampleCap set the device's read
// sample stops growing at the cap while still seeing every read — the
// memory bound the long-running serve daemon relies on. ResetMeasurement
// must rebuild the bounded sample, not fall back to unbounded.
func TestSampleCapBoundsReadSample(t *testing.T) {
	cfg := smallConfig()
	cfg.SampleCap = 32
	d, err := newWith(cfg, flatBER(0, 0), baseline.FixedWorstCase{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(512); err != nil {
		t.Fatal(err)
	}
	run := func() {
		for i := 0; i < 200; i++ {
			d.Read(d.Now(), uint64(i%512))
		}
		res := d.Results()
		if res.ReadSample.N() != 32 {
			t.Fatalf("capped sample holds %d, want 32", res.ReadSample.N())
		}
		if res.Reads != 200 {
			t.Fatalf("capped sample saw %d reads, want 200", res.Reads)
		}
		if res.ReadSample.Percentiles(99)[0] <= 0 {
			t.Fatal("capped sample answers zero p99")
		}
	}
	run()
	d.ResetMeasurement()
	run()
}
