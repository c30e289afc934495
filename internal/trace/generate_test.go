package trace

import (
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"prord/internal/randutil"
)

// TestGenerateAllocs holds Generate to one sizing of its trace: WorldCup
// at scale 0.3 may allocate at most 1.25 times its own requests' bytes,
// which leaves room for the sort keys (a fifth) and the file table, and
// none for the slice to grow, which would copy every request at least
// once more. Request itself stays at 80 bytes on a 64-bit platform.
func TestGenerateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on paths the production build does not")
	}
	if size := unsafe.Sizeof(Request{}); unsafe.Sizeof(uintptr(0)) == 8 && size != 80 {
		t.Errorf("Request is %d bytes, want 80: a field order that pads it costs every trace in memory", size)
	}
	sc, tc, err := PresetConfigs(PresetWorldCup, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rng := randutil.New(1)
	site, err := GenerateSite(sc, rng)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := Generate("wc", site, tc, rng)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	own := float64(uintptr(len(tr.Requests)) * unsafe.Sizeof(Request{}))
	if got := float64(after.TotalAlloc - before.TotalAlloc); got > 1.25*own {
		t.Errorf("generating %d requests (%.1f MB) allocated %.1f MB, %.2f times their bytes; want at most 1.25",
			len(tr.Requests), own/1e6, got/1e6, got/own)
	}
}

var sinkGenerated *Trace

// BenchmarkGenerate generates WorldCup at scale 0.05 (about 45,000
// requests) on a site built once.
func BenchmarkGenerate(b *testing.B) {
	sc, tc, err := PresetConfigs(PresetWorldCup, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	site, err := GenerateSite(sc, randutil.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sinkGenerated, err = Generate("wc", site, tc, randutil.New(2)); err != nil {
			b.Fatal(err)
		}
	}
}

// FuzzSortByTime holds the key sort to sort.SliceStable, whose order
// it must give, on times drawn from the input: a few distinct values
// (heavy ties), one value, or any int64.
func FuzzSortByTime(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 0, 3, 3, 1, 0, 2, 2, 1, 0}, uint8(0))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7}, uint8(1))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0x80, 5}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		var reqs []Request
		switch mode % 3 {
		case 0: // heavy ties: four distinct times
			for _, b := range data {
				reqs = append(reqs, Request{Time: time.Duration(b % 4)})
			}
		case 1: // every time equal
			for range data {
				reqs = append(reqs, Request{Time: 42})
			}
		default: // any time, eight bytes each
			for ; len(data) >= 8; data = data[8:] {
				reqs = append(reqs, Request{Time: time.Duration(binary.LittleEndian.Uint64(data))})
			}
		}
		for i := range reqs {
			reqs[i].Session = i // names each request's original place
		}
		want := slices.Clone(reqs)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Time < want[j].Time })
		tr := &Trace{Requests: reqs}
		tr.SortByTime()
		if !slices.Equal(tr.Requests, want) {
			t.Fatalf("SortByTime differs from sort.SliceStable on %d requests", len(want))
		}
	})
}

// TestPresetConfigsRejectsBadScales: a scale must be a positive, finite
// number whose request count fits the generator. NaN fails every
// comparison, so a "<= 0" check lets it through, and a count past the
// int range converts to a negative number that the 100-request floor
// would quietly clamp.
func TestPresetConfigsRejectsBadScales(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e20, 1e6} {
		for _, p := range []Preset{PresetCS, PresetWorldCup, PresetSynthetic} {
			if _, tc, err := PresetConfigs(p, scale); err == nil {
				t.Errorf("%v at scale %v: %d requests, want an error", p, scale, tc.Requests)
			}
		}
	}
	for _, scale := range []float64{1e-9, 0.05, 1, 1000} {
		if _, _, err := PresetConfigs(PresetWorldCup, scale); err != nil {
			t.Errorf("scale %v: %v", scale, err)
		}
	}
}

// TestGenerateRejectsBadConfigs: every numeric field of TraceConfig is
// checked before anything is sized from it, NaN and infinities too.
func TestGenerateRejectsBadConfigs(t *testing.T) {
	site := smallSite(t, 1)
	for _, c := range []struct {
		name   string
		mutate func(*TraceConfig)
	}{
		{"zero requests", func(c *TraceConfig) { c.Requests = 0 }},
		{"too many requests", func(c *TraceConfig) { c.Requests = maxRequests + 1 }},
		{"zero rate", func(c *TraceConfig) { c.SessionRate = 0 }},
		{"NaN rate", func(c *TraceConfig) { c.SessionRate = math.NaN() }},
		{"infinite rate", func(c *TraceConfig) { c.SessionRate = math.Inf(1) }},
		{"short sessions", func(c *TraceConfig) { c.MeanPagesPerSession = 0.5 }},
		{"NaN sessions", func(c *TraceConfig) { c.MeanPagesPerSession = math.NaN() }},
		{"infinite sessions", func(c *TraceConfig) { c.MeanPagesPerSession = math.Inf(1) }},
		{"NaN determinism", func(c *TraceConfig) { c.Determinism = math.NaN() }},
		{"negative determinism", func(c *TraceConfig) { c.Determinism = -0.1 }},
		{"zero clients", func(c *TraceConfig) { c.Clients = 0 }},
		{"short weights", func(c *TraceConfig) { c.GroupWeights = []float64{1} }},
	} {
		cfg := DefaultTraceConfig()
		c.mutate(&cfg)
		if _, err := Generate("bad", site, cfg, randutil.New(1)); err == nil || !strings.HasPrefix(err.Error(), "trace: ") {
			t.Errorf("%s: error %v, want a trace: error", c.name, err)
		}
	}
}
