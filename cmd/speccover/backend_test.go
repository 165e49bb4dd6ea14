package main

import (
	"reflect"
	"testing"

	"vids/internal/engine"
	"vids/internal/ids"
	"vids/internal/trace"
	"vids/internal/witness"
)

// TestBackendWitnessParity replays every synthesized coverage witness
// trace through both EFSM backends and requires the identical alert
// multiset. The gap traces exist precisely because the scenario suite
// does not reach these transitions, so this is the differential test
// that exercises the compiled dispatch tables on the rare corners —
// legitimate CANCELs, reopen/close cycles, spam absorption, stray
// responses — where a miscompiled guard would otherwise hide.
func TestBackendWitnessParity(t *testing.T) {
	for _, gt := range witness.Traces() {
		alerts := make(map[ids.Backend][]ids.Alert, 2)
		for _, backend := range []ids.Backend{ids.BackendCompiled, ids.BackendInterpreted} {
			cfg := ids.DefaultConfig()
			cfg.Backend = backend
			s := newSim()
			d := ids.New(s, cfg)
			if err := trace.Replay(s, gt.Entries, d); err != nil {
				t.Fatalf("%s/%s: replay: %v", gt.Name, backend, err)
			}
			if err := s.RunAll(); err != nil {
				t.Fatalf("%s/%s: run: %v", gt.Name, backend, err)
			}
			got := d.Alerts()
			engine.SortAlerts(got)
			alerts[backend] = got
		}
		compiled, interpreted := alerts[ids.BackendCompiled], alerts[ids.BackendInterpreted]
		if !reflect.DeepEqual(compiled, interpreted) {
			t.Errorf("%s: alert sets diverge between backends\ncompiled:    %+v\ninterpreted: %+v",
				gt.Name, compiled, interpreted)
		}
	}
}
