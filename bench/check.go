package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/service"
)

// checkLog keeps copies of sampled replies so they can be verified
// after the measured window, off the clock. Its storage is allocated
// up front: recording a reply allocates nothing, so the sampling does
// not show in allocs_per_stmt.
type checkLog struct {
	recs  []checkRec
	probs []float64
}

type checkRec struct {
	stmt     int32 // pool index of the statement
	version  int32
	off, n   int32 // the reply's Probs are probs[off : off+n]
	class    int32
	log, raw float64
	classify bool
}

func newCheckLog(replies, classes int) *checkLog {
	return &checkLog{recs: make([]checkRec, 0, replies), probs: make([]float64, 0, replies*classes)}
}

// add records one reply for the statement at pool index stmt. A full
// log drops it: fewer replies are checked, none is checked wrongly.
func (l *checkLog) add(stmt int, pr *service.Prediction) {
	if len(l.recs) == cap(l.recs) || len(l.probs)+len(pr.Probs) > cap(l.probs) {
		return
	}
	l.recs = append(l.recs, checkRec{
		stmt: int32(stmt), version: int32(pr.Version),
		off: int32(len(l.probs)), n: int32(len(pr.Probs)),
		class: int32(pr.Class), log: pr.Log, raw: pr.Raw, classify: pr.Classification,
	})
	l.probs = append(l.probs, pr.Probs...)
}

// checker compares replies bit for bit with the direct core.Model of
// the version each reply's provenance names.
type checker struct {
	in    *inputs
	model func(version int) (*core.Model, error)
	refs  map[int]*core.Model
	buf   []float64

	checked, wrong int
	firstWrong     string
}

func newChecker(in *inputs, model func(version int) (*core.Model, error)) *checker {
	return &checker{in: in, model: model, refs: map[int]*core.Model{}}
}

// verify checks one reply and reports whether it was right.
func (c *checker) verify(stmt int, pr *service.Prediction) bool {
	c.checked++
	ref := c.refs[pr.Version]
	if ref == nil {
		m, err := c.model(pr.Version)
		if err != nil {
			return c.fail(fmt.Sprintf("no reference for version %d: %v", pr.Version, err))
		}
		ref, c.refs[pr.Version] = m, m
	}
	text := c.in.stmt(stmt)
	if pr.Classification {
		c.buf = ref.ProbsInto(text, c.buf)
		if len(c.buf) != len(pr.Probs) {
			return c.fail(fmt.Sprintf("statement %d: %d probabilities, want %d", stmt, len(pr.Probs), len(c.buf)))
		}
		best := 0
		for i, want := range c.buf {
			if math.Float64bits(want) != math.Float64bits(pr.Probs[i]) {
				return c.fail(fmt.Sprintf("statement %d: probs[%d] = %x, want %x", stmt, i, math.Float64bits(pr.Probs[i]), math.Float64bits(want)))
			}
			if want > c.buf[best] {
				best = i
			}
		}
		if pr.Class != best {
			return c.fail(fmt.Sprintf("statement %d: class %d, want %d", stmt, pr.Class, best))
		}
		return true
	}
	if want := ref.PredictLog(text); math.Float64bits(want) != math.Float64bits(pr.Log) {
		return c.fail(fmt.Sprintf("statement %d: log %x, want %x", stmt, math.Float64bits(pr.Log), math.Float64bits(want)))
	}
	if want := ref.PredictRaw(text); math.Float64bits(want) != math.Float64bits(pr.Raw) {
		return c.fail(fmt.Sprintf("statement %d: raw %x, want %x", stmt, math.Float64bits(pr.Raw), math.Float64bits(want)))
	}
	return true
}

func (c *checker) fail(why string) bool {
	c.wrong++
	if c.firstWrong == "" {
		c.firstWrong = why
	}
	return false
}

// verifyLog checks every recorded reply of a log and returns how many
// were wrong.
func (c *checker) verifyLog(l *checkLog) int {
	before := c.wrong
	for _, r := range l.recs {
		pr := service.Prediction{
			Version: int(r.version), Classification: r.classify, Class: int(r.class),
			Probs: l.probs[r.off : r.off+r.n], Log: r.log, Raw: r.raw,
		}
		c.verify(int(r.stmt), &pr)
	}
	return c.wrong - before
}
