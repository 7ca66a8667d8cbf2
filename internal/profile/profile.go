// Package profile is the branch profile that order determination consumes:
// per-function entry counts and taken/fall-through counters gathered while
// code runs in the interpreter tier. Profile is the one value type from the
// interpreter to the wire: interp.Result.Profile produces it, jit.Options,
// extelim.Config and freq.Compute read it, it merges with saturating adds,
// and it serializes with a deterministic byte encoding (functions sorted by
// name, branches by instruction ID; sxelim -profile-out / -profile-in).
//
// Branch counters are keyed by the branch instruction's ID in the frontend
// (32-bit form) program; ir.Func.Clone preserves IDs, so profiles gathered on
// an execution clone apply to every later compilation of the same frontend
// output.
package profile

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInvalid is wrapped by every Unmarshal rejection, so callers can
// distinguish "this artifact is bad" (errors.Is(err, ErrInvalid)) from I/O
// problems without matching message text. Unmarshal never panics on hostile
// input — truncated JSON, overflowing counters, unknown versions and
// structural garbage all come back as structured errors (FuzzParseProfile
// enforces this).
var ErrInvalid = errors.New("invalid profile artifact")

// Counts is one branch's outcome totals.
type Counts struct {
	Taken int64 `json:"taken"`
	Fall  int64 `json:"fall"`
}

// FuncProfile is the gathered profile of one function: how often it was
// entered and how each of its conditional branches resolved.
type FuncProfile struct {
	Calls    int64
	Branches map[int]Counts
}

// Add adds outcomes to branch id's counters, saturating at MaxInt64.
func (fp *FuncProfile) Add(id int, taken, fall int64) {
	c := fp.Branches[id]
	fp.Branches[id] = Counts{Taken: satAdd(c.Taken, taken), Fall: satAdd(c.Fall, fall)}
}

// Profile is the serializable value form of a gathered profile: function
// name -> counters. The zero value (nil) is a valid empty profile.
type Profile map[string]*FuncProfile

// Counts returns a branch's taken/fall-through totals (0, 0 for a branch or
// function the profile has not seen).
func (p Profile) Counts(fn string, id int) (taken, fall int64) {
	if fp := p[fn]; fp != nil {
		c := fp.Branches[id]
		return c.Taken, c.Fall
	}
	return 0, 0
}

// Weight is the hotness of one function: entries plus executed branch
// events. Calls alone would starve loop bodies (one call, a million
// iterations); branch events alone would starve straight-line code.
func (p Profile) Weight(fn string) int64 {
	fp := p[fn]
	if fp == nil {
		return 0
	}
	w := fp.Calls
	for _, c := range fp.Branches {
		w = satAdd(w, satAdd(c.Taken, c.Fall))
	}
	return w
}

// Clone deep-copies the profile.
func (p Profile) Clone() Profile {
	if p == nil {
		return nil
	}
	out := make(Profile, len(p))
	for name, fp := range p {
		nb := make(map[int]Counts, len(fp.Branches))
		for id, c := range fp.Branches {
			nb[id] = c
		}
		out[name] = &FuncProfile{Calls: fp.Calls, Branches: nb}
	}
	return out
}

// Merge adds other's counters into p (saturating at MaxInt64) and returns p,
// allocating it if nil. Merging partial profiles from several runs is the
// normal mode of the tiered runtime; consumers must not assume arm counts
// sum to any particular total (freq normalizes probabilities).
func (p Profile) Merge(other Profile) Profile {
	if len(other) == 0 {
		return p
	}
	if p == nil {
		p = Profile{}
	}
	for name, ofp := range other {
		fp := p[name]
		if fp == nil {
			fp = &FuncProfile{Branches: map[int]Counts{}}
			p[name] = fp
		}
		fp.Calls = satAdd(fp.Calls, ofp.Calls)
		for id, c := range ofp.Branches {
			fp.Add(id, c.Taken, c.Fall)
		}
	}
	return p
}

// Wire format: one JSON object with explicit, sorted arrays so the encoding
// is byte-deterministic (golden-file pinnable) and diff-friendly.
type wireFile struct {
	Version   int        `json:"version"`
	Functions []wireFunc `json:"functions"`
}

type wireFunc struct {
	Name     string       `json:"name"`
	Calls    int64        `json:"calls,omitempty"`
	Branches []wireBranch `json:"branches,omitempty"`
}

type wireBranch struct {
	ID    int   `json:"id"`
	Taken int64 `json:"taken"`
	Fall  int64 `json:"fall"`
}

// wireVersion is bumped on incompatible schema changes; Unmarshal rejects
// anything else so a stale artifact fails loudly instead of silently biasing
// order determination.
const wireVersion = 1

// Marshal encodes the profile deterministically: functions sorted by name,
// branches by instruction ID, indented for human diffing, trailing newline.
func (p Profile) Marshal() []byte {
	w := wireFile{Version: wireVersion, Functions: []wireFunc{}}
	names := make([]string, 0, len(p))
	for name := range p {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fp := p[name]
		wf := wireFunc{Name: name, Calls: fp.Calls}
		ids := make([]int, 0, len(fp.Branches))
		for id := range fp.Branches {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			c := fp.Branches[id]
			wf.Branches = append(wf.Branches, wireBranch{ID: id, Taken: c.Taken, Fall: c.Fall})
		}
		w.Functions = append(w.Functions, wf)
	}
	data, err := json.MarshalIndent(&w, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("profile: marshal cannot fail on plain structs: %v", err))
	}
	return append(data, '\n')
}

// Unmarshal decodes a profile written by Marshal (or hand-written JSON in
// the same schema), validating version, duplicates, count signs and overflow.
// Counters too large for int64 are rejected by the JSON decoder itself
// (overflow, not silent wrap); every rejection wraps ErrInvalid.
func Unmarshal(data []byte) (Profile, error) {
	var w wireFile
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("profile: bad JSON: %w: %w", ErrInvalid, err)
	}
	if w.Version != wireVersion {
		return nil, fmt.Errorf("profile: %w: unsupported version %d (want %d)", ErrInvalid, w.Version, wireVersion)
	}
	p := Profile{}
	for _, wf := range w.Functions {
		if wf.Name == "" {
			return nil, fmt.Errorf("profile: %w: function with empty name", ErrInvalid)
		}
		if p[wf.Name] != nil {
			return nil, fmt.Errorf("profile: %w: duplicate function %q", ErrInvalid, wf.Name)
		}
		if wf.Calls < 0 {
			return nil, fmt.Errorf("profile: %w: %s: negative call count %d", ErrInvalid, wf.Name, wf.Calls)
		}
		fp := &FuncProfile{Calls: wf.Calls, Branches: map[int]Counts{}}
		for _, b := range wf.Branches {
			if b.Taken < 0 || b.Fall < 0 {
				return nil, fmt.Errorf("profile: %w: %s: branch %d has negative counts (%d/%d)", ErrInvalid, wf.Name, b.ID, b.Taken, b.Fall)
			}
			if _, dup := fp.Branches[b.ID]; dup {
				return nil, fmt.Errorf("profile: %w: %s: duplicate branch id %d", ErrInvalid, wf.Name, b.ID)
			}
			fp.Branches[b.ID] = Counts{Taken: b.Taken, Fall: b.Fall}
		}
		p[wf.Name] = fp
	}
	return p, nil
}

// satAdd adds two non-negative counters, saturating at MaxInt64 so merged
// long-running profiles never wrap negative.
func satAdd(a, b int64) int64 {
	s := a + b
	if s < a {
		return math.MaxInt64
	}
	return s
}
