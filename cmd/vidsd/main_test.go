package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/trace"
)

func writeSynthTrace(t *testing.T, cfg engine.SynthConfig) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "synth.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for _, en := range engine.Synthesize(cfg) {
		if err := w.Record(en.Packet(), en.At()); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// readReport decodes the -report document a run wrote.
func readReport(t *testing.T, path string) reportDoc {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var doc reportDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("report is not an alert+stats document: %v\n%s", err, data)
	}
	return doc
}

// assertAccounting checks the pipeline's accounting identity on the
// drained counters a report records: every ingested packet was
// processed, dropped, absorbed, ignored or counted as a parse error,
// and the fast-path hits are a subset of the processed packets.
func assertAccounting(t *testing.T, st engine.Stats) {
	t.Helper()
	if sum := st.Processed + st.Dropped + st.Absorbed + st.Ignored + st.ParseErrors; sum != st.Ingested {
		t.Errorf("accounting identity broken: ingested %d != processed %d + dropped %d + absorbed %d + ignored %d + parse errors %d",
			st.Ingested, st.Processed, st.Dropped, st.Absorbed, st.Ignored, st.ParseErrors)
	}
	if st.FastpathHits > st.Processed {
		t.Errorf("fast-path hits %d exceed processed %d", st.FastpathHits, st.Processed)
	}
}

// TestDefaultFlagsRunLaneTier: with no -lanes (and no -shards) the
// daemon runs the ingestion tier with one lane per shard — there is no
// other way in — and its drained counters balance.
func TestDefaultFlagsRunLaneTier(t *testing.T) {
	path := writeSynthTrace(t, engine.SynthConfig{Calls: 10, RTPPerCall: 5, Attacks: true})
	report := filepath.Join(t.TempDir(), "alerts.json")

	var stdout, stderr bytes.Buffer
	err := run([]string{"-trace", path, "-pace", "0", "-stats", "0", "-report", report}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	m := regexp.MustCompile(`vidsd: (\d+) lane\(s\) -> (\d+) shard\(s\)`).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("banner does not report the lane tier:\n%s", stderr.String())
	}
	if m[1] != m[2] {
		t.Errorf("default run: %s lane(s) for %s shard(s), want one lane per shard", m[1], m[2])
	}
	doc := readReport(t, report)
	assertAccounting(t, doc.Stats)
	if doc.Stats.Ingested == 0 {
		t.Errorf("report stats empty: %+v", doc.Stats)
	}
	if len(doc.Alerts) == 0 {
		t.Error("attack trace raised no alerts")
	}
}

// TestTraceRunToCompletion drives the daemon end to end on a synthetic
// attack trace at maximum pace: it must detect, drain, report and
// exit on its own.
func TestTraceRunToCompletion(t *testing.T) {
	path := writeSynthTrace(t, engine.SynthConfig{Calls: 10, RTPPerCall: 5, Attacks: true})
	report := filepath.Join(t.TempDir(), "alerts.json")

	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-source", "trace", "-trace", path, "-pace", "0",
		"-shards", "3", "-policy", "block", "-report", report,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "ALERT") {
		t.Errorf("no alerts on stdout:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "vidsd: done:") {
		t.Errorf("no final summary on stderr:\n%s", stderr.String())
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "invite-flood") {
		t.Errorf("report missing expected alert types:\n%s", data)
	}
}

// TestEOFDrainFlushesStatsAndReport pins the EOF exit path: when the
// trace source simply runs out (no signal involved), the daemon must
// still announce the drain, print the final statistics line, and
// write the JSON report.
func TestEOFDrainFlushesStatsAndReport(t *testing.T) {
	path := writeSynthTrace(t, engine.SynthConfig{Calls: 4, RTPPerCall: 3})
	report := filepath.Join(t.TempDir(), "alerts.json")

	var stdout, stderr bytes.Buffer
	// -stats 0 disables the periodic reporter, so any stats line on
	// stderr can only come from the final flush.
	err := run([]string{
		"-source", "trace", "-trace", path, "-pace", "0",
		"-shards", "2", "-stats", "0", "-report", report,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	out := stderr.String()
	if !strings.Contains(out, "vidsd: source exhausted, draining") {
		t.Errorf("no EOF drain notice:\n%s", out)
	}
	if !strings.Contains(out, "vidsd: ingested=") {
		t.Errorf("final stats line not flushed on EOF:\n%s", out)
	}
	if !strings.Contains(out, "vidsd: done:") {
		t.Errorf("no final summary:\n%s", out)
	}
	if !strings.Contains(out, "vidsd: report written to") {
		t.Errorf("report not announced:\n%s", out)
	}
	doc := readReport(t, report)
	if doc.Alerts == nil {
		t.Errorf("report has no alerts array: %+v", doc)
	}
	if doc.Stats.Ingested == 0 {
		t.Errorf("report stats empty: %+v", doc.Stats)
	}
	assertAccounting(t, doc.Stats)
}

// TestLanesRunToCompletion drives the multi-lane ingestion tier end to
// end from the daemon: same trace, -lanes 2, shed policy and the
// widened report. The attack trace must still be fully detected.
func TestLanesRunToCompletion(t *testing.T) {
	path := writeSynthTrace(t, engine.SynthConfig{Calls: 10, RTPPerCall: 5, Attacks: true})
	report := filepath.Join(t.TempDir(), "alerts.json")

	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-source", "trace", "-trace", path, "-pace", "0",
		"-shards", "4", "-lanes", "2", "-policy", "shed",
		"-stats", "0", "-report", report,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "vidsd: 2 lane(s) -> 4 shard(s)") {
		t.Errorf("lane banner missing:\n%s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "ALERT") {
		t.Errorf("no alerts on stdout:\n%s", stdout.String())
	}
	doc := readReport(t, report)
	if !hasAlert(doc.Alerts, ids.AlertInviteFlood) {
		t.Errorf("report missing expected alert types: %+v", doc.Alerts)
	}
	if doc.Stats.Dropped != 0 {
		t.Errorf("lossless trace replay dropped %d packets", doc.Stats.Dropped)
	}
	assertAccounting(t, doc.Stats)
}

// TestFastpathCountersSurfaced pins the operator-visible fast-path
// accounting: on a benign media-heavy trace the cache must absorb
// packets, the stderr stats line must carry the fp-* counters, and the
// JSON report must record them. On/off alert parity is pinned against
// engine.Config.DisableFastpath by the ingress parity tests.
func TestFastpathCountersSurfaced(t *testing.T) {
	path := writeSynthTrace(t, engine.SynthConfig{Calls: 4, RTPPerCall: 40})
	report := filepath.Join(t.TempDir(), "alerts.json")

	var stdout, stderr bytes.Buffer
	// A small queue keeps ingestion within a few packets of the shard
	// worker, so flows reach the armable state (no queued escalations)
	// instead of the whole trace being enqueued before any arm lands.
	err := run([]string{
		"-source", "trace", "-trace", path, "-pace", "0",
		"-shards", "1", "-lanes", "1", "-queue", "4",
		"-stats", "0", "-report", report,
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	for _, counter := range []string{"fp-hits=", "fp-misses=", "fp-escalations=", "fp-invalidations="} {
		if !strings.Contains(stderr.String(), counter) {
			t.Errorf("stats line missing %s:\n%s", counter, stderr.String())
		}
	}
	doc := readReport(t, report)
	if doc.Stats.FastpathHits == 0 {
		t.Errorf("benign media-heavy trace absorbed nothing: %+v", doc.Stats)
	}
	if len(doc.Alerts) != 0 {
		t.Errorf("benign trace raised %d alert(s): %+v", len(doc.Alerts), doc.Alerts)
	}
	assertAccounting(t, doc.Stats)
}

// TestSRTPFlag: header-only mode must run clean end to end and stay
// silent on a benign trace.
func TestSRTPFlag(t *testing.T) {
	path := writeSynthTrace(t, engine.SynthConfig{Calls: 3, RTPPerCall: 4})
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-source", "trace", "-trace", path, "-pace", "0",
		"-shards", "2", "-lanes", "2", "-srtp", "-stats", "0",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if strings.Contains(stdout.String(), "ALERT") {
		t.Errorf("benign trace raised alerts in -srtp mode:\n%s", stdout.String())
	}
}

// TestDropPolicyFlag exercises the drop-oldest configuration path.
func TestDropPolicyFlag(t *testing.T) {
	path := writeSynthTrace(t, engine.SynthConfig{Calls: 2, RTPPerCall: 2})
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-source", "trace", "-trace", path, "-pace", "0",
		"-shards", "1", "-queue", "4", "-policy", "drop", "-stats", "0",
	}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

func hasAlert(alerts []ids.Alert, typ ids.AlertType) bool {
	for _, a := range alerts {
		if a.Type == typ {
			return true
		}
	}
	return false
}

func TestFlagErrors(t *testing.T) {
	var out bytes.Buffer
	cases := [][]string{
		{"-policy", "bogus"},
		{"-source", "bogus"},
		{"-source", "trace"}, // no -trace file
		{"-nope"},
		{"-compiled=false"}, // reference backend is test-only
		{"-fastpath=false"}, // so is the cache-off path
	}
	for _, args := range cases {
		if err := run(args, &out, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
