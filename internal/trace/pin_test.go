package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
)

// traceDigest fingerprints a trace with FNV-64a: every request's fields
// in a fixed order, then the file table in sorted path order. Strings
// are length-prefixed, so no two different traces share an encoding.
// The field order is the digest's own, not Request's layout, so
// reordering the struct leaves every digest alone.
func traceDigest(tr *Trace) string {
	h := fnv.New64a()
	var buf [8]byte
	putInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	putStr := func(s string) {
		putInt(int64(len(s)))
		h.Write([]byte(s))
	}
	putBool := func(b bool) {
		if b {
			putInt(1)
		} else {
			putInt(0)
		}
	}
	putInt(int64(len(tr.Requests)))
	for i := range tr.Requests {
		r := &tr.Requests[i]
		putInt(int64(r.Time))
		putInt(int64(r.Session))
		putStr(r.Client)
		putStr(r.Path)
		putInt(r.Size)
		putBool(r.Embedded)
		putStr(r.Parent)
		putBool(r.Dynamic)
	}
	paths := make([]string, 0, len(tr.Files))
	for p := range tr.Files {
		paths = append(paths, p)
	}
	slices.Sort(paths)
	putInt(int64(len(paths)))
	for _, p := range paths {
		putStr(p)
		putInt(tr.Files[p])
	}
	return fmt.Sprintf("fnv64a:%016x", h.Sum64())
}

// TestGeneratePins pins every preset's generated trace, at two scales
// and two seeds, to constants. Nothing else compares the generator's
// output with a fixed answer: the goldens see it only through replays.
// A change that moves a single request, field or file fails here, and
// one that is meant to (a recalibrated preset) re-captures the pins in
// a commit of its own that names why.
func TestGeneratePins(t *testing.T) {
	pins := []struct {
		preset Preset
		scale  float64
		seed   int64
		reqs   int
		digest string
	}{
		{PresetCS, 0.05, 1, 1377, "fnv64a:f4c2fbb9422d4185"},
		{PresetCS, 0.05, 42, 1367, "fnv64a:d4a2c8468b60de84"},
		{PresetCS, 0.3, 1, 8245, "fnv64a:8dc2c0494a827958"},
		{PresetCS, 0.3, 42, 8302, "fnv64a:e1f0db42d0aea233"},
		{PresetWorldCup, 0.05, 1, 44890, "fnv64a:d1f9d2bfa3eadd7a"},
		{PresetWorldCup, 0.05, 42, 44894, "fnv64a:5184c410dc7229ee"},
		{PresetWorldCup, 0.3, 1, 269257, "fnv64a:1ef86546665cc0f7"},
		{PresetWorldCup, 0.3, 42, 269250, "fnv64a:2f95023c76ea48bd"},
		{PresetSynthetic, 0.05, 1, 1505, "fnv64a:4448ce6122b50e8f"},
		{PresetSynthetic, 0.05, 42, 1503, "fnv64a:3f622632287a6345"},
		{PresetSynthetic, 0.3, 1, 9005, "fnv64a:5078ce3f90654dd0"},
		{PresetSynthetic, 0.3, 42, 9034, "fnv64a:a5959a3262d497aa"},
	}
	for _, p := range pins {
		_, tr, err := GeneratePreset(p.preset, p.scale, p.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := traceDigest(tr); len(tr.Requests) != p.reqs || got != p.digest {
			t.Errorf("%v scale %v seed %d: %d requests, %s; want %d, %s",
				p.preset, p.scale, p.seed, len(tr.Requests), got, p.reqs, p.digest)
		}
	}
}
