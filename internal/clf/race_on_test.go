//go:build race

package clf

const raceEnabled = true
