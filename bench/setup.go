package main

import (
	"bytes"
	"time"

	"prord/internal/clf"
	"prord/internal/mining"
	"prord/internal/trace"
)

// setupReps is how many times a run sets the program up; setup_s is
// the median, because one sub-second set-up swings by a fifth.
const setupReps = 5

// setupTimes is one set-up, stage by stage: access log -> entries ->
// sessions -> mined model -> a cluster ready for its first request.
type setupTimes struct {
	parse, sessionize, mine, boot time.Duration
}

func (t setupTimes) total() time.Duration { return t.parse + t.sessionize + t.mine + t.boot }

// mineLog is the program's start-up path up to the mined model: what
// logmine and prord-server do with an access log. Mining options are
// the caller's because the simulator's rank decay differs.
func mineLog(log []byte, opt mining.Options) (*mining.Miner, setupTimes, error) {
	var t setupTimes
	start := time.Now()
	entries, err := clf.NewReader(bytes.NewReader(log)).ReadAll()
	if err != nil {
		return nil, t, err
	}
	t.parse = time.Since(start)

	start = time.Now()
	train := trace.FromCLF("train", entries, trace.DefaultSessionizeOptions())
	t.sessionize = time.Since(start)

	start = time.Now()
	miner := mining.Mine(train, opt)
	t.mine = time.Since(start)
	return miner, t, nil
}

// medianSetup picks, stage by stage, the median over the repetitions.
func medianSetup(reps []setupTimes) (total float64, stages setupTimes) {
	pick := func(f func(setupTimes) time.Duration) float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = float64(f(r))
		}
		return median(vs)
	}
	stages = setupTimes{
		parse:      time.Duration(pick(func(t setupTimes) time.Duration { return t.parse })),
		sessionize: time.Duration(pick(func(t setupTimes) time.Duration { return t.sessionize })),
		mine:       time.Duration(pick(func(t setupTimes) time.Duration { return t.mine })),
		boot:       time.Duration(pick(func(t setupTimes) time.Duration { return t.boot })),
	}
	return pick(setupTimes.total) / float64(time.Second), stages
}
