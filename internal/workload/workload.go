// Package workload defines query-workload data structures, the paper's
// SDSS extraction pipeline (Section 4.1 / Appendix B.3), train/valid/
// test splitting for the three problem settings (Definition 5), and the
// workload analysis of Section 4.3.
package workload

import (
	"math/rand"
	"sort"

	"repro/internal/simdb"
)

// SessionClass is the paper's seven-valued client class of the session
// that produced a query (Section 4.1).
type SessionClass int

// Session classes in the order the paper lists them (Figure 6b).
const (
	NoWebHit SessionClass = iota
	Unknown
	Bot
	Admin
	Program
	Anonymous
	Browser
)

// NumSessionClasses is the cardinality of SessionClass.
const NumSessionClasses = 7

// String returns the workload label of the class.
func (s SessionClass) String() string {
	switch s {
	case NoWebHit:
		return "no_web_hit"
	case Unknown:
		return "unknown"
	case Bot:
		return "bot"
	case Admin:
		return "admin"
	case Program:
		return "program"
	case Anonymous:
		return "anonymous"
	case Browser:
		return "browser"
	default:
		return "?"
	}
}

// SessionClassNames lists all class names in label order.
var SessionClassNames = []string{
	"no_web_hit", "unknown", "bot", "admin", "program", "anonymous", "browser",
}

// ErrorClassNames lists error-class names indexed by simdb.ErrorClass.
var ErrorClassNames = []string{"severe", "success", "non_severe"}

// RawEntry is one query-log record as it appears in the (synthetic)
// SqlLog: statement text, session identity, session class, and the
// execution outcome labels.
type RawEntry struct {
	Statement string
	SessionID int
	Class     SessionClass
	User      string // SQLShare owner; empty for SDSS
	Result    simdb.Result
}

// Item is one unique statement in an extracted workload with its
// aggregated labels (Section 4.1: average for numeric labels, majority
// vote for class labels).
type Item struct {
	Statement  string
	ErrorClass simdb.ErrorClass
	AnswerSize float64 // averaged; -1 when the query never ran
	CPUTime    float64
	Elapsed    float64 // wall-clock seconds (SqlLog "elapsed")
	Class      SessionClass
	User       string
	Repeats    int // how many sampled log entries shared this statement
}

// Workload is an extracted set of unique statements with labels.
type Workload struct {
	Items []Item
}

// Extract runs the paper's two-step extraction on a raw log:
// (1) sample one query log per session (breaking template redundancy),
// (2) group logs with identical statements and aggregate their labels.
// The rng drives the per-session sampling.
func Extract(log []RawEntry, rng *rand.Rand) *Workload {
	// Step 1: group by session and sample one entry per session.
	bySession := map[int][]int{}
	for i, e := range log {
		bySession[e.SessionID] = append(bySession[e.SessionID], i)
	}
	sessionIDs := make([]int, 0, len(bySession))
	for id := range bySession {
		sessionIDs = append(sessionIDs, id)
	}
	sort.Ints(sessionIDs)
	sampled := make([]RawEntry, 0, len(sessionIDs))
	for _, id := range sessionIDs {
		idxs := bySession[id]
		sampled = append(sampled, log[idxs[rng.Intn(len(idxs))]])
	}
	return Dedup(sampled)
}

// Dedup performs the second extraction step on already-sampled entries:
// group identical statements and aggregate labels. Items come in the
// order their statements are first seen.
func Dedup(sampled []RawEntry) *Workload {
	group := map[string]int{} // statement → its index in groups
	var groups [][]RawEntry
	for _, e := range sampled {
		i, ok := group[e.Statement]
		if !ok {
			i = len(groups)
			group[e.Statement] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], e)
	}
	w := &Workload{Items: make([]Item, len(groups))}
	for i, entries := range groups {
		w.Items[i] = aggregate(entries[0].Statement, entries)
	}
	return w
}

// aggregate merges labels of log entries sharing a statement: averages
// for answer size and CPU time, majority vote (ties broken by label
// order, which is deterministic) for the class labels.
func aggregate(stmt string, entries []RawEntry) Item {
	item := Item{Statement: stmt, Repeats: len(entries), User: entries[0].User}
	var ansSum, cpuSum, elapsedSum float64
	errVotes := map[simdb.ErrorClass]int{}
	classVotes := map[SessionClass]int{}
	for _, e := range entries {
		ansSum += float64(e.Result.AnswerSize)
		cpuSum += e.Result.CPUTime
		elapsedSum += e.Result.Elapsed
		errVotes[e.Result.Error]++
		classVotes[e.Class]++
	}
	item.AnswerSize = ansSum / float64(len(entries))
	item.CPUTime = cpuSum / float64(len(entries))
	item.Elapsed = elapsedSum / float64(len(entries))
	item.ErrorClass = majorityError(errVotes)
	item.Class = majorityClass(classVotes)
	return item
}

func majorityError(votes map[simdb.ErrorClass]int) simdb.ErrorClass {
	best, bestN := simdb.Success, -1
	for c := simdb.ErrorClass(0); c < simdb.NumErrorClasses; c++ {
		if n := votes[c]; n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

func majorityClass(votes map[SessionClass]int) SessionClass {
	best, bestN := NoWebHit, -1
	for c := SessionClass(0); c < NumSessionClasses; c++ {
		if n := votes[c]; n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// RepetitionHistogram buckets the per-statement repeat counts like
// Figure 20: 1, 2, 3, 4-20, 21-100, 101-1000, >1000.
func (w *Workload) RepetitionHistogram() map[string]int {
	h := map[string]int{}
	for _, item := range w.Items {
		switch {
		case item.Repeats == 1:
			h["1"]++
		case item.Repeats == 2:
			h["2"]++
		case item.Repeats == 3:
			h["3"]++
		case item.Repeats <= 20:
			h["4-20"]++
		case item.Repeats <= 100:
			h["21-100"]++
		case item.Repeats <= 1000:
			h["101-1000"]++
		default:
			h[">1000"]++
		}
	}
	return h
}

// RepetitionBuckets is the display order for RepetitionHistogram keys.
var RepetitionBuckets = []string{"1", "2", "3", "4-20", "21-100", "101-1000", ">1000"}

// Split is a train/validation/test partition of a workload.
type Split struct {
	Train, Valid, Test []Item
}

// RandomSplit shuffles items and partitions them by the given fractions
// (the paper uses 80/10/10).
func RandomSplit(items []Item, validFrac, testFrac float64, rng *rand.Rand) Split {
	shuffled := append([]Item(nil), items...)
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	n := len(shuffled)
	nValid := int(float64(n) * validFrac)
	nTest := int(float64(n) * testFrac)
	nTrain := n - nValid - nTest
	return Split{
		Train: shuffled[:nTrain],
		Valid: shuffled[nTrain : nTrain+nValid],
		Test:  shuffled[nTrain+nValid:],
	}
}

// UserSplit partitions items by user so train and test users are
// disjoint (the Heterogeneous Schema setting): whole users are assigned
// to partitions until the target fractions are reached.
func UserSplit(items []Item, validFrac, testFrac float64, rng *rand.Rand) Split {
	byUser := map[string][]Item{}
	var users []string
	for _, item := range items {
		if _, ok := byUser[item.User]; !ok {
			users = append(users, item.User)
		}
		byUser[item.User] = append(byUser[item.User], item)
	}
	sort.Strings(users)
	rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	total := len(items)
	wantValid := int(float64(total) * validFrac)
	wantTest := int(float64(total) * testFrac)
	var split Split
	for _, u := range users {
		chunk := byUser[u]
		switch {
		case len(split.Test) < wantTest:
			split.Test = append(split.Test, chunk...)
		case len(split.Valid) < wantValid:
			split.Valid = append(split.Valid, chunk...)
		default:
			split.Train = append(split.Train, chunk...)
		}
	}
	return split
}

// Statements returns the statements of items.
func Statements(items []Item) []string {
	out := make([]string, len(items))
	for i, item := range items {
		out[i] = item.Statement
	}
	return out
}
