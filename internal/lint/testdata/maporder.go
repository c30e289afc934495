package fixture

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

type holder struct {
	names    []string
	parentOf map[string]string
}

func badAppend(m map[string]int) []string {
	var out []string
	for k := range m { // want maporder
		out = append(out, k)
	}
	return out
}

func badFieldAppend(m map[string]int, h *holder) {
	for k := range m { // want maporder
		h.names = append(h.names, k)
	}
}

func badPrint(m map[string]int) {
	for k, v := range m { // want maporder
		fmt.Printf("%s=%d\n", k, v)
	}
}

func badWriter(m map[string]int, w io.Writer) {
	for k := range m { // want maporder
		fmt.Fprintln(w, k)
	}
}

func badBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m { // want maporder
		b.WriteString(k)
	}
	return b.String()
}

func goodSortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m { // collect-then-sort: allowed
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func goodSortSlice(m map[string]int) []string {
	var keys []string
	for k := range m { // sorted via sort.Slice: allowed
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func goodCommutative(m map[string]int) int {
	total := 0
	for _, v := range m { // summing is order-insensitive: allowed
		total += v
	}
	return total
}

func goodInnerAppend(m map[string][]string) map[string]int {
	counts := map[string]int{}
	for k, vs := range m { // append target lives inside the loop: allowed
		var dedup []string
		seen := map[string]bool{}
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				dedup = append(dedup, v)
			}
		}
		counts[k] = len(dedup)
	}
	return counts
}

func goodSliceRange(xs []string) []string {
	var out []string
	for _, x := range xs { // ranging a slice: allowed
		out = append(out, x)
	}
	return out
}

// The shape of Bundles.rebuild before its parents broke ties on the page
// path: among pages with equal counts, the range order picked an
// object's parent.
func (h *holder) badParentOf(objCounts map[string]map[string]int) {
	bestCount := make(map[string]int)
	for page, objs := range objCounts {
		for obj, count := range objs {
			if count > bestCount[obj] { // want maporder
				bestCount[obj] = count
				h.parentOf[obj] = page
			}
		}
	}
}

func goodArgmaxTieBreak(m map[string]int) string {
	best, bestN := "", 0
	for k, n := range m { // ties go to the smaller key: allowed
		if n > bestN || (n == bestN && k < best) {
			best, bestN = k, n
		}
	}
	return best
}
