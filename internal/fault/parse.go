package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"stronghold/internal/sim"
)

// ParsePlan parses the fault DSL:
//
//	plan  := [ "seed=" uint ";" ] rule *( ";" rule )
//	rule  := target ":" kind "(" param *( "," param ) ")"
//	param := key "=" value
//
// Targets: h2d d2h nvme cpu. Kinds: stall slow drop rand.
// Durations use Go syntax ("250ms", "1.5s"). Whitespace around
// separators is ignored; an empty string is the empty plan. The parsed
// plan is validated; see Plan and Rule for the parameter semantics.
func ParsePlan(s string) (*Plan, error) {
	p := &Plan{}
	seenSeed := false
	for i, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			if i == 0 && len(strings.TrimSpace(s)) == 0 {
				break // empty plan
			}
			return nil, fmt.Errorf("fault: empty rule at position %d", i)
		}
		if v, ok := strings.CutPrefix(part, "seed="); ok && !strings.Contains(part, ":") {
			if i != 0 || seenSeed {
				return nil, fmt.Errorf("fault: seed= must appear once, first")
			}
			seed, err := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q: %v", v, err)
			}
			p.Seed = seed
			seenSeed = true
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, r)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func parseRule(s string) (Rule, error) {
	var r Rule
	head, rest, ok := strings.Cut(s, ":")
	if !ok {
		return r, fmt.Errorf("fault: rule %q: want target:kind(params)", s)
	}
	r.Target = Target(strings.TrimSpace(head))
	open := strings.IndexByte(rest, '(')
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return r, fmt.Errorf("fault: rule %q: want target:kind(params)", s)
	}
	r.Kind = Kind(strings.TrimSpace(rest[:open]))
	body := rest[open+1 : len(rest)-1]
	if strings.TrimSpace(body) == "" {
		return r, fmt.Errorf("fault: rule %q: needs parameters", s)
	}
	for _, kv := range strings.Split(body, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return r, fmt.Errorf("fault: rule %q: bad parameter %q", s, kv)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "at":
			r.At, err = parseDur(val)
		case "dur":
			r.Dur, err = parseDur(val)
		case "every":
			r.Every, err = parseDur(val)
		case "span":
			r.Span, err = parseDur(val)
		case "count":
			r.Count, err = parseInt(val)
		case "n":
			r.N, err = parseInt(val)
		case "factor":
			r.Factor, err = strconv.ParseFloat(val, 64)
		default:
			err = fmt.Errorf("unknown key")
		}
		if err != nil {
			return r, fmt.Errorf("fault: rule %q: parameter %q: %v", s, kv, err)
		}
	}
	return r, nil
}

func parseDur(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return sim.Time(d), nil
}

func parseInt(s string) (int, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	return int(v), err
}
