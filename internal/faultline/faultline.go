// Package faultline is a deterministic, seedable fault-injection layer for
// the tracking-service ingest path. It wraps an http.Handler and injects
// scheduled faults — added latency, 429 storms with or without Retry-After,
// 5xx bursts, connection resets, truncated and bit-flipped response bodies,
// and stale or duplicated element sets — so the pipeline's fault tolerance
// can be exercised end-to-end without a flaky network.
//
// Faults fire on a modular request schedule: a Rule like 429:3/5 returns
// 429 for the first three of every five requests and passes the remaining
// two through. Because the schedule depends only on the request counter and
// the seed, a run is reproducible, and because every rule passes some
// requests through, any data the service owns is eventually served — the
// precondition of the determinism suite, which asserts that the ingested
// dataset under faults is identical to the fault-free run.
package faultline

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Kind names one fault class.
type Kind string

// The fault classes. Latency composes with the others; the rest are
// mutually exclusive per request (first matching rule wins).
const (
	Latency   Kind = "latency"  // delay the response
	RateLimit Kind = "429"      // 429 with Retry-After: 0 (suffix ! omits the header)
	Error500  Kind = "500"      // internal server error
	Error503  Kind = "503"      // service unavailable
	Reset     Kind = "reset"    // kill the connection before any response
	Truncate  Kind = "truncate" // send half the body under the full Content-Length
	Corrupt   Kind = "corrupt"  // flip one deterministic byte of the body
	Duplicate Kind = "dup"      // append the body to itself (duplicate element sets)
	Stale     Kind = "stale"    // replay the first response ever seen for the URL
)

// Rule fires its fault for the first Count of every Period requests
// (0-based modular arithmetic on the injector's request counter).
type Rule struct {
	Kind   Kind
	Count  int
	Period int
	// Delay is the added latency for Latency rules.
	Delay time.Duration
	// NoRetryAfter makes RateLimit responses omit the Retry-After header,
	// forcing the client onto its own backoff.
	NoRetryAfter bool
}

// applies reports whether the rule fires for request n (0-based).
func (r Rule) applies(n int64) bool {
	if r.Period <= 0 {
		return false
	}
	return n%int64(r.Period) < int64(r.Count)
}

// String renders the rule in schedule syntax.
func (r Rule) String() string {
	kind := string(r.Kind)
	if r.Kind == RateLimit && r.NoRetryAfter {
		kind += "!"
	}
	s := fmt.Sprintf("%s:%d/%d", kind, r.Count, r.Period)
	if r.Kind == Latency {
		s += ":" + r.Delay.String()
	}
	return s
}

// Schedule is an ordered rule list. The zero value injects nothing.
type Schedule struct {
	Rules []Rule
}

// String renders the schedule in the syntax ParseSchedule accepts.
func (s *Schedule) String() string {
	parts := make([]string, len(s.Rules))
	for i, r := range s.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// retryCosting reports whether the kind forces the client to retry.
// Latency only slows a success, and Duplicate/Stale still serve parseable
// 200s, so none of them consume retry budget.
func retryCosting(k Kind) bool {
	switch k {
	case RateLimit, Error500, Error503, Reset, Truncate, Corrupt:
		return true
	}
	return false
}

// MaxConsecutiveFaults bounds the longest run of consecutive requests on
// which some retry-costing rule fires — the retry budget a client needs to
// outlast the schedule. Returns the bound over one full cycle of the
// combined rule periods (capped at 10k requests for pathological inputs).
func (s *Schedule) MaxConsecutiveFaults() int {
	cycle := 1
	for _, r := range s.Rules {
		if !retryCosting(r.Kind) || r.Period <= 0 {
			continue
		}
		cycle = lcm(cycle, r.Period)
		if cycle > 10000 {
			cycle = 10000
			break
		}
	}
	longest, run := 0, 0
	// Two cycles catch runs that wrap around the cycle boundary.
	for n := int64(0); n < int64(2*cycle); n++ {
		faulted := false
		for _, r := range s.Rules {
			if retryCosting(r.Kind) && r.applies(n) {
				faulted = true
				break
			}
		}
		if faulted {
			run++
			if run > longest {
				longest = run
			}
		} else {
			run = 0
		}
	}
	return longest
}

func lcm(a, b int) int {
	x, y := a, b
	for y != 0 {
		x, y = y, x%y
	}
	return a / x * b
}

// ParseSchedule decodes the -faults flag syntax: a comma-separated rule
// list, each rule kind:count/period with an optional :duration argument for
// latency rules. A trailing ! on 429 omits the Retry-After header.
//
//	latency:2/5:50ms,429:3/5,503:2/7,truncate:1/6,corrupt:1/9,dup:1/4
//
// An empty string parses to an empty (no-fault) schedule.
func ParseSchedule(s string) (*Schedule, error) {
	sched := &Schedule{}
	s = strings.TrimSpace(s)
	if s == "" {
		return sched, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.SplitN(part, ":", 3)
		if len(fields) < 2 {
			return nil, fmt.Errorf("faultline: rule %q: want kind:count/period", part)
		}
		var rule Rule
		kind := fields[0]
		if strings.HasSuffix(kind, "!") {
			kind = strings.TrimSuffix(kind, "!")
			rule.NoRetryAfter = true
		}
		rule.Kind = Kind(kind)
		switch rule.Kind {
		case Latency, RateLimit, Error500, Error503, Reset, Truncate, Corrupt, Duplicate, Stale:
		default:
			return nil, fmt.Errorf("faultline: rule %q: unknown fault kind %q", part, kind)
		}
		if rule.NoRetryAfter && rule.Kind != RateLimit {
			return nil, fmt.Errorf("faultline: rule %q: ! only applies to 429", part)
		}
		count, period, ok := strings.Cut(fields[1], "/")
		if !ok {
			return nil, fmt.Errorf("faultline: rule %q: want count/period", part)
		}
		var err error
		if rule.Count, err = strconv.Atoi(count); err != nil || rule.Count < 0 {
			return nil, fmt.Errorf("faultline: rule %q: bad count %q", part, count)
		}
		if rule.Period, err = strconv.Atoi(period); err != nil || rule.Period <= 0 {
			return nil, fmt.Errorf("faultline: rule %q: bad period %q", part, period)
		}
		if rule.Count >= rule.Period && rule.Kind != Latency {
			return nil, fmt.Errorf("faultline: rule %q: count must be < period, or no request ever succeeds", part)
		}
		if rule.Kind == Latency {
			if len(fields) < 3 {
				return nil, fmt.Errorf("faultline: rule %q: latency needs a duration argument", part)
			}
			if rule.Delay, err = time.ParseDuration(fields[2]); err != nil || rule.Delay < 0 {
				return nil, fmt.Errorf("faultline: rule %q: bad duration %q", part, fields[2])
			}
		} else if len(fields) == 3 {
			return nil, fmt.Errorf("faultline: rule %q: only latency rules take an argument", part)
		}
		sched.Rules = append(sched.Rules, rule)
	}
	return sched, nil
}

// Builtin returns the named schedules the determinism suite runs, each
// exercising one fault class (plus "everything", which layers them all).
// Every schedule leaves a majority of requests clean so data is eventually
// served within a 6-attempt retry budget.
func Builtin() map[string]*Schedule {
	mustParse := func(s string) *Schedule {
		sched, err := ParseSchedule(s)
		if err != nil {
			panic(err)
		}
		return sched
	}
	return map[string]*Schedule{
		"latency":          mustParse("latency:2/5:2ms"),
		"rate-limit-storm": mustParse("429:3/7"),
		"rate-limit-mute":  mustParse("429!:3/7"),
		"5xx-burst":        mustParse("500:1/5,503:2/7"),
		"resets":           mustParse("reset:1/4"),
		"truncation":       mustParse("truncate:2/5"),
		"corruption":       mustParse("corrupt:2/5"),
		"duplicates":       mustParse("dup:1/2"),
		"stale-replay":     mustParse("stale:1/3"),
		"everything":       mustParse("latency:1/5:1ms,429:1/7,503:1/11,reset:1/13,truncate:1/17,corrupt:1/19,dup:1/23,stale:1/29"),
	}
}
