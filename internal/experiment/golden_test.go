package experiment

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"prord/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenOptions is the campaign the golden text pins: small enough for
// tier-1, large enough that every mechanism fires somewhere.
func goldenOptions() Options {
	opt := DefaultOptions()
	opt.Scale = 0.05
	opt.Seed = 42
	return opt
}

// goldenCampaigns runs `prord-sim -exp all` and `-exp extras` once per
// test binary at goldenOptions; the other tests read the same tables.
var goldenCampaigns = sync.OnceValues(func() (map[string][]*Table, error) {
	r := NewRunner(goldenOptions())
	all, err := r.All()
	if err != nil {
		return nil, err
	}
	extras, err := r.Extras()
	if err != nil {
		return nil, err
	}
	return map[string][]*Table{"all": all, "extras": extras}, nil
})

// render lays tables out as prord-sim prints them, without the
// "simulated N requests" line.
func render(tables []*Table) []byte {
	var b bytes.Buffer
	for _, tab := range tables {
		b.WriteString(tab.String())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestTablesGolden pins every table byte for byte. A change that moves a
// simulated digit on purpose rewrites the files with
// `go test ./internal/experiment -run TablesGolden -update` and commits
// them on their own.
func TestTablesGolden(t *testing.T) {
	t.Parallel()
	campaigns, err := goldenCampaigns()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"all", "extras"} {
		got := render(campaigns[name])
		path := filepath.Join("testdata", name+".golden")
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			n, g, w := firstDiff(string(got), string(want))
			t.Errorf("%s differs from the tables at scale 0.05, seed 42, first at line %d (rerun with -update if the change is intended):\n got: %s\nwant: %s\n(%d lines got, %d lines in the golden)",
				path, n, g, w, bytes.Count(got, []byte("\n")), bytes.Count(want, []byte("\n")))
		}
	}
}

// firstDiff returns the 1-based number of the first line where got and
// want differ, and that line of each, quoted so trailing blanks show;
// a side that has ended reads "(end of file)".
func firstDiff(got, want string) (n int, g, w string) {
	gl := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	wl := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	line := func(lines []string) string {
		if i < len(lines) {
			return strconv.Quote(lines[i])
		}
		return "(end of file)"
	}
	return i + 1, line(gl), line(wl)
}

// goldenTable returns the golden campaign's table with the given id.
func goldenTable(t *testing.T, id string) *Table {
	t.Helper()
	campaigns, err := goldenCampaigns()
	if err != nil {
		t.Fatal(err)
	}
	for _, tables := range campaigns {
		for _, tab := range tables {
			if tab.ID == id {
				return tab
			}
		}
	}
	t.Fatalf("no table %q in the golden campaigns", id)
	return nil
}

// TestSameCellSameNumber checks that a cell two tables share reads the
// same in both: the extras differ from the paper's figures only in the
// fields their cells set.
func TestSameCellSameNumber(t *testing.T) {
	same := func(a *Table, arow, acol string, b *Table, brow, bcol string) {
		t.Helper()
		if x, y := a.MustGet(arow, acol), b.MustGet(brow, bcol); x != y {
			t.Errorf("%s (%s, %s) = %v, but %s (%s, %s) = %v",
				a.ID, arow, acol, x, b.ID, brow, bcol, y)
		}
	}
	fig7, response, hitrate := goldenTable(t, "fig7"), goldenTable(t, "response"), goldenTable(t, "hitrate")
	dynamic, failover := goldenTable(t, "dynamic"), goldenTable(t, "failover")
	for _, pol := range []string{"LARD", "PRORD"} {
		same(dynamic, "0%", pol, fig7, "Synthetic", pol)
	}
	same(failover, "healthy", "hitrate", hitrate, "Synthetic", "PRORD")
	same(failover, "healthy", "respms", response, "Synthetic", "PRORD")
}

// TestGDSFReachesEveryCell checks the campaign's cache choice reaches
// the extras that configure a cluster beyond the paper's cells.
func TestGDSFReachesEveryCell(t *testing.T) {
	opt := goldenOptions()
	opt.UseGDSF = true
	gdsf, err := NewRunner(opt).Failover()
	if err != nil {
		t.Fatal(err)
	}
	if lru := goldenTable(t, "failover"); gdsf.String() == lru.String() {
		t.Errorf("failover with UseGDSF reads the same as with LRU:\n%s", gdsf)
	}
}

// TestEveryReplayIsCounted checks that Simulated counts the replays an
// ablation makes: four thresholds, four replays of the eval trace.
func TestEveryReplayIsCounted(t *testing.T) {
	opt := goldenOptions()
	r := NewRunner(opt)
	if _, err := r.AblationThreshold(); err != nil {
		t.Fatal(err)
	}
	_, full, err := trace.GeneratePreset(trace.PresetSynthetic, opt.Scale, opt.Seed)
	if err != nil {
		t.Fatal(err)
	}
	_, eval := full.Split(opt.TrainFraction)
	if got, _ := r.Simulated(); got != 4*len(eval.Requests) {
		t.Errorf("Simulated() = %d requests after the threshold ablation, want 4 x %d", got, len(eval.Requests))
	}
}
