package lint

import (
	"go/token"
	"strings"
)

// Suppression directives.
//
// A finding is silenced by a comment of the form
//
//	//lint:ignore <checker>[,<checker>...] <reason>
//
// placed either at the end of the offending line or alone on the line
// directly above it. The checker list may be "all". The reason is
// mandatory: a suppression without a stated justification is itself
// reported as a diagnostic, so every escape from the determinism
// contract is documented at the site that needs it.

type ignoreEntry struct {
	checkers []string // lower-case checker names, or ["all"]
	pos      token.Position
	// used flips when the directive actually suppresses a finding; the
	// staleignore sweep reports directives that never do.
	used bool
}

type ignoreSet struct {
	// byLine maps filename -> line -> directives on that line. Entries are
	// pointers so suppression can record usage.
	byLine    map[string]map[int][]*ignoreEntry
	malformed []Diagnostic
	// entries holds every directive in collection order, for the
	// staleness sweep.
	entries []*ignoreEntry
}

const ignorePrefix = "//lint:ignore"

// collectIgnores scans every comment of the package for //lint:ignore
// directives. known holds the valid checker names; a directive naming an
// unknown checker is reported as malformed rather than silently inert.
func collectIgnores(pkg *Package, known map[string]bool) *ignoreSet {
	ig := &ignoreSet{byLine: map[string]map[int][]*ignoreEntry{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:ignored — not our directive
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					ig.malformed = append(ig.malformed, Diagnostic{
						Pos:     pos,
						Checker: "lint",
						Message: "malformed //lint:ignore: want \"//lint:ignore <checker> <reason>\"",
					})
					continue
				}
				var checkers []string
				bad := ""
				for _, name := range strings.Split(fields[0], ",") {
					name = strings.ToLower(strings.TrimSpace(name))
					if name != "all" && !known[name] {
						bad = name
						break
					}
					checkers = append(checkers, name)
				}
				if bad != "" {
					ig.malformed = append(ig.malformed, Diagnostic{
						Pos:     pos,
						Checker: "lint",
						Message: "//lint:ignore names unknown checker \"" + bad + "\"",
					})
					continue
				}
				lines := ig.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]*ignoreEntry{}
					ig.byLine[pos.Filename] = lines
				}
				e := &ignoreEntry{checkers: checkers, pos: pos}
				lines[pos.Line] = append(lines[pos.Line], e)
				ig.entries = append(ig.entries, e)
			}
		}
	}
	return ig
}

// suppresses reports whether a directive on the diagnostic's line, or on
// the line directly above it, covers the named checker. A matching
// directive is marked used for the staleness sweep.
func (ig *ignoreSet) suppresses(checker string, pos token.Position) bool {
	lines := ig.byLine[pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		for _, e := range lines[line] {
			for _, name := range e.checkers {
				if name == "all" || name == checker {
					e.used = true
					return true
				}
			}
		}
	}
	return false
}

// stale is the staleignore sweep, which keeps the suppression inventory
// honest: every //lint:ignore directive must still silence a live
// diagnostic. A directive that matches nothing is dead weight — the code
// it excused was fixed or deleted, and leaving it in place would
// silently swallow the next real finding on that line. Run performs the
// sweep after every checker has consulted the package's suppression
// state, since staleness is only known then. collectIgnores already
// rejected directives naming inactive checkers, so every surviving entry
// was judgeable by the active suite.
func (ig *ignoreSet) stale() []Diagnostic {
	var out []Diagnostic
	for _, e := range ig.entries {
		if e.used {
			continue
		}
		out = append(out, Diagnostic{
			Pos:     e.pos,
			Checker: "staleignore",
			Message: "stale //lint:ignore " + strings.Join(e.checkers, ",") + ": no live diagnostic at this site",
		})
	}
	return out
}
