package experiment

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"prord/internal/cluster"
	"prord/internal/trace"
)

// TestSimulationIsDeterministic is the reproducibility regression gate:
// the same Params and seed must yield byte-identical serialized Results.
// Every figure and table in this repo rests on that property; a stray
// wall-clock read, global rand draw or map-ordered aggregation breaks it
// (which is what internal/lint's analyzers guard statically — this test
// is the dynamic check).
func TestSimulationIsDeterministic(t *testing.T) {
	opt := DefaultOptions()
	opt.Scale = 0.05
	run := Run{Preset: trace.PresetCS, Policy: "PRORD", Features: cluster.AllFeatures()}

	execute := func() ([]byte, *cluster.Result) {
		res, err := NewRunner(opt).Execute(run)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		return data, res
	}

	data1, res1 := execute()
	data2, res2 := execute()
	if !bytes.Equal(data1, data2) {
		t.Errorf("serialized Results differ between identical seeded runs:\nrun1: %.200s\nrun2: %.200s", data1, data2)
	}
	// JSON misses unexported state (e.g. histogram buckets); DeepEqual
	// inspects everything.
	if !reflect.DeepEqual(res1, res2) {
		t.Errorf("Results differ structurally: %+v vs %+v", res1, res2)
	}
	if res1.Metrics.Completed == 0 {
		t.Fatal("degenerate run: no requests completed")
	}
}
