//go:build race

package mining

const raceEnabled = true
