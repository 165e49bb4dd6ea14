package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/ingress"
	"vids/internal/sim"
)

// EngineResult holds experiment E10: scaling of the online sharded
// detection pipeline. The same synthetic workload is pushed through
// the ingress tier and its engine with one shard and with NumCPU
// shards; the speedup bounds
// what the paper's per-call independence argument (Section 7.3) buys
// on this machine, and alert parity confirms sharding changes nothing
// about what is detected.
type EngineResult struct {
	Packets      int
	Calls        int
	BaseTime     time.Duration // wall time, 1 shard
	ScaledShards int           // NumCPU
	ScaledTime   time.Duration // wall time, NumCPU shards
	Speedup      float64
	Alerts       int
	AlertsMatch  bool // scaled alert stream identical to 1-shard stream
}

// pps converts a wall time into packets per second.
func (r *EngineResult) pps(d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(r.Packets) / d.Seconds()
}

// Render formats the result for the experiment report.
func (r *EngineResult) Render() string {
	parity := "IDENTICAL alert streams"
	if !r.AlertsMatch {
		parity = "ALERT STREAMS DIVERGE (bug!)"
	}
	return fmt.Sprintf(`E10: online engine scaling (internal/ingress + internal/engine)
  workload:    %d packets over %d calls (benign + attack mix)
  1 shard:     %v (%.0f pkts/s)
  %d shard(s):  %v (%.0f pkts/s)
  speedup:     %.2fx on %d CPU(s)
  parity:      %s (%d alerts)
  paper claim: per-call EFSM independence makes detection parallel (§7.3)`,
		r.Packets, r.Calls,
		r.BaseTime.Round(time.Millisecond), r.pps(r.BaseTime),
		r.ScaledShards, r.ScaledTime.Round(time.Millisecond), r.pps(r.ScaledTime),
		r.Speedup, runtime.NumCPU(),
		parity, r.Alerts)
}

// EngineScaling runs experiment E10 on the engineWorkload trace, once
// through a one-shard tier and once through NumCPU shards.
func EngineScaling(o Options) (*EngineResult, error) {
	calls, pkts, ats := engineWorkload(o)
	baseTime, baseAlerts, err := replayIngress(engine.Config{Shards: 1}, pkts, ats)
	if err != nil {
		return nil, err
	}
	n := runtime.NumCPU()
	scaledTime, scaledAlerts, err := replayIngress(engine.Config{Shards: n}, pkts, ats)
	if err != nil {
		return nil, err
	}

	res := &EngineResult{
		Packets:      len(pkts),
		Calls:        calls,
		BaseTime:     baseTime,
		ScaledShards: n,
		ScaledTime:   scaledTime,
		Alerts:       len(scaledAlerts),
		AlertsMatch:  reflect.DeepEqual(baseAlerts, scaledAlerts),
	}
	if scaledTime > 0 {
		res.Speedup = float64(baseTime) / float64(scaledTime)
	}
	if !res.AlertsMatch {
		return res, fmt.Errorf("experiments: engine alert streams diverge (1 shard: %d, %d shards: %d)",
			len(baseAlerts), n, len(scaledAlerts))
	}
	return res, nil
}

// engineWorkload synthesizes the trace experiments E10 and E12 share.
// It is synthesized (not captured from the testbed) so its size tracks
// the options: one call per MeanCallInterval per UA over the horizon,
// media packets capped to keep paper-scale runs tractable. Packets are
// reconstructed once so every run measures the pipeline, not trace
// decoding.
func engineWorkload(o Options) (calls int, pkts []*sim.Packet, ats []time.Duration) {
	o = o.withDefaults()
	calls = int(o.Duration/o.MeanCallInterval) * o.UAs
	if calls < 8 {
		calls = 8
	}
	if calls > 2000 {
		calls = 2000
	}
	rtpPerCall := int(o.MeanCallDuration / (20 * time.Millisecond))
	if rtpPerCall > 120 {
		rtpPerCall = 120
	}
	if rtpPerCall < 4 {
		rtpPerCall = 4
	}
	entries := engine.Synthesize(engine.SynthConfig{
		Calls: calls, RTPPerCall: rtpPerCall, Attacks: true,
	})
	pkts = make([]*sim.Packet, len(entries))
	ats = make([]time.Duration, len(entries))
	for i, en := range entries {
		pkts[i] = en.Packet()
		ats[i] = en.At()
	}
	return calls, pkts, ats
}

// replayIngress pushes the packets through a fresh production front
// door (ingress.New, one lane per shard) and returns the wall time to
// a drained pipeline and the merged alert stream.
func replayIngress(cfg engine.Config, pkts []*sim.Packet, ats []time.Duration) (time.Duration, []ids.Alert, error) {
	ing := ingress.New(ingress.Config{Engine: cfg})
	start := time.Now()
	for i := range pkts {
		if err := ing.Ingest(pkts[i], ats[i]); err != nil {
			return 0, nil, err
		}
	}
	if err := ing.Close(); err != nil {
		return 0, nil, err
	}
	return time.Since(start), ing.Alerts(), nil
}
