//go:build race

package httpfront

const raceEnabled = true
