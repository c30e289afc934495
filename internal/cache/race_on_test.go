//go:build race

package cache

const raceEnabled = true
