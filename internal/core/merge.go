// Merging per-shard telemetry. The sharded serve path (internal/server
// with Shards > 1) runs N independent Runners — one full-size device
// per engine — and /metrics must present them as one device. MergeMetrics
// is that composition, and it is deliberately deterministic: every
// rule below is order-independent (sums, maxima, volume-weighted
// means), so two snapshots of the same per-shard states agree no
// matter which engine refreshed last or how the shards are enumerated.
package core

// MergeMetrics folds per-shard Metrics into one aggregate view:
//
//   - event counters (programs, erases, faults, recovery work, shed,
//     …) and histogram buckets sum — they count disjoint events on
//     separate shard devices;
//   - response-time means weight by the volume that produced them
//     (reads for AvgRead, user writes for AvgWrite, both for
//     AvgResponse), so an idle shard cannot drag the average;
//   - read-latency percentiles take the worst shard — the
//     conservative choice for SLO reporting, exact when shards are
//     similarly loaded and safe when they are not;
//   - SimTime takes the maximum: shards run concurrently, so the
//     merged makespan is the slowest clock, not the sum;
//   - RecoveryTime sums: each shard's recovery unavailability is real
//     serving capacity lost, even when other shards kept going;
//   - Degraded ORs — one read-only shard device makes the service
//     partially degraded, and /healthz must say so.
//
// A single input is returned verbatim, so a one-shard server reports
// its device's own Metrics. ms must not be empty: every shard holds a
// snapshot from the moment it is built.
func MergeMetrics(ms []Metrics) Metrics {
	if len(ms) == 1 {
		return ms[0]
	}
	out := Metrics{Workload: ms[0].Workload, System: ms[0].System}
	var respNum, respDen float64 // volume-weighted mean accumulators
	var readNum, readDen float64
	var writeNum, writeDen float64
	var capLoss float64
	for _, m := range ms {
		reads := float64(m.Reads)
		writes := float64(m.UserWrites)
		readNum += m.AvgRead * reads
		readDen += reads
		writeNum += m.AvgWrite * writes
		writeDen += writes
		respNum += m.AvgResponse * (reads + writes)
		respDen += reads + writes

		if m.P50Read > out.P50Read {
			out.P50Read = m.P50Read
		}
		if m.P95Read > out.P95Read {
			out.P95Read = m.P95Read
		}
		if m.P99Read > out.P99Read {
			out.P99Read = m.P99Read
		}
		if m.SimTime > out.SimTime {
			out.SimTime = m.SimTime
		}

		out.UserWrites += m.UserWrites
		out.TotalPrograms += m.TotalPrograms
		out.Erases += m.Erases
		out.Migrations += m.Migrations
		out.Evictions += m.Evictions
		out.ReducedPages += m.ReducedPages
		capLoss += m.CapacityLoss
		for i := range out.LevelHist {
			out.LevelHist[i] += m.LevelHist[i]
		}

		out.Unreadable += m.Unreadable
		out.Refreshes += m.Refreshes
		out.RefreshFailures += m.RefreshFailures
		out.Recalibrations += m.Recalibrations
		out.CalibProbes += m.CalibProbes
		out.CalibRescues += m.CalibRescues
		out.CalibReReads += m.CalibReReads
		out.EscalatedRetirements += m.EscalatedRetirements

		out.Reads += m.Reads
		out.RetiredBlocks += m.RetiredBlocks
		out.ProgramFailures += m.ProgramFailures
		out.EraseFailures += m.EraseFailures
		out.GrownBadBlocks += m.GrownBadBlocks
		out.SparesUsed += m.SparesUsed
		out.WritesRejected += m.WritesRejected
		out.WriteFailures += m.WriteFailures
		out.TransientReadFaults += m.TransientReadFaults
		out.ReadRetries += m.ReadRetries
		out.DataLoss += m.DataLoss
		out.Degraded = out.Degraded || m.Degraded

		out.Shed += m.Shed
		out.DeadlineExceeded += m.DeadlineExceeded

		out.Crashes += m.Crashes
		out.InFlightLost += m.InFlightLost
		out.RecoveryReads += m.RecoveryReads
		out.RecoveryRecords += m.RecoveryRecords
		out.RecoveryTime += m.RecoveryTime

		out.MetaBytes += m.MetaBytes
		out.LevelCache.Hits += m.LevelCache.Hits
		out.LevelCache.Misses += m.LevelCache.Misses
		out.LevelCache.Resets += m.LevelCache.Resets
		out.BERCache.Hits += m.BERCache.Hits
		out.BERCache.Misses += m.BERCache.Misses
		out.BERCache.Resets += m.BERCache.Resets

		out.Tenants = append(out.Tenants, m.Tenants...)
	}
	if respDen > 0 {
		out.AvgResponse = respNum / respDen
	}
	if readDen > 0 {
		out.AvgRead = readNum / readDen
	}
	if writeDen > 0 {
		out.AvgWrite = writeNum / writeDen
	}
	if out.UserWrites > 0 {
		out.WriteAmp = float64(out.TotalPrograms) / float64(out.UserWrites)
	}
	// Capacity loss is a fraction of each equal shard device's space:
	// the merged device loses the mean fraction.
	out.CapacityLoss = capLoss / float64(len(ms))
	return out
}
