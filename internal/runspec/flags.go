package runspec

import (
	"flag"
	"fmt"
	"sort"
	"strings"
)

// The flag set is the codec: a spec bound to a scratch FlagSet encodes by
// visiting its flags and decodes by setting them, so Bind stays the only place
// that names a field.

// flags binds the groups to a fresh FlagSet.
func (s *Spec) flags(g Group) *flag.FlagSet {
	fs := flag.NewFlagSet("runspec", flag.ContinueOnError)
	s.Bind(fs, g)
	return fs
}

// values encodes fs: every flag in keep (nil = all) whose value is not its
// type's zero, under its name with underscores — the spelling stream Meta and
// report Params use.
func values(fs *flag.FlagSet, keep map[string]bool) map[string]string {
	m := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) {
		if v := f.Value.String(); (keep == nil || keep[f.Name]) && !zero(v) {
			m[strings.ReplaceAll(f.Name, "-", "_")] = v
		}
	})
	return m
}

func zero(v string) bool { return v == "" || v == "0" || v == "false" }

// Meta encodes the groups' non-zero knobs as a key/value map.
func (s Spec) Meta(g Group) map[string]string { return values(s.flags(g), nil) }

// FromMeta decodes a Meta map over the groups' vocabulary. Unknown keys are
// an error, so a map from a newer vocabulary fails loudly instead of
// describing the wrong run.
func FromMeta(meta map[string]string, g Group) (Spec, error) {
	var s Spec
	fs := s.flags(g)
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var unknown []string
	for _, k := range keys {
		name := strings.ReplaceAll(k, "_", "-")
		if fs.Lookup(name) == nil {
			unknown = append(unknown, k)
		} else if err := fs.Set(name, meta[k]); err != nil {
			return Spec{}, fmt.Errorf("runspec: meta %s=%q: %w", k, meta[k], err)
		}
	}
	if len(unknown) > 0 {
		return Spec{}, fmt.Errorf("runspec: unknown meta keys %v", unknown)
	}
	return s, nil
}

// Or returns s with every zero-valued knob of the groups taken from def — how
// a literal spec gets the defaults a CLI's flags show.
func (s Spec) Or(def Spec, g Group) Spec {
	from := def.flags(g)
	s.flags(g).VisitAll(func(f *flag.Flag) {
		if zero(f.Value.String()) {
			// def's value printed by the same flag type always parses.
			_ = f.Value.Set(from.Lookup(f.Name).Value.String())
		}
	})
	return s
}

// Mode is one way to run a CLI, declared by what it reads: spec groups, plus
// the CLI's own flags by name.
type Mode struct {
	Name  string // how the user asks for it, e.g. "-sweep gap|rescale"
	Reads Group
	Also  []string
}

func (m Mode) reads() map[string]bool {
	set := map[string]bool{}
	new(Spec).flags(m.Reads).VisitAll(func(f *flag.Flag) { set[f.Name] = true })
	for _, n := range m.Also {
		set[n] = true
	}
	return set
}

// Set reports whether the command line set any flag of the groups.
func Set(fs *flag.FlagSet, g Group) bool {
	in, set := Mode{Reads: g}.reads(), false
	fs.Visit(func(f *flag.Flag) { set = set || in[f.Name] })
	return set
}

// Check rejects every flag set on the command line that the chosen mode does
// not read but another mode does, naming the flag and the modes that read it.
// A flag no mode lists (a mode selector, an output path) belongs to all.
func Check(fs *flag.FlagSet, modes []Mode, chosen int) error {
	ok := modes[chosen].reads()
	var err error
	fs.Visit(func(f *flag.Flag) {
		var by []string
		for _, m := range modes {
			if m.reads()[f.Name] {
				by = append(by, m.Name)
			}
		}
		if err == nil && !ok[f.Name] && by != nil {
			err = fmt.Errorf("-%s applies to %s only, not to %s", f.Name, strings.Join(by, ", "), modes[chosen].Name)
		}
	})
	return err
}

// Params is what a report says produced it: the non-zero flags the mode read.
func Params(fs *flag.FlagSet, m Mode) map[string]string { return values(fs, m.reads()) }
