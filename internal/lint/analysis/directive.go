package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// DirectivePrefix introduces a suppression comment. A diagnostic from
// analyzer A at line L is suppressed when line L, or line L-1, carries a
// comment of the form
//
//	//lint:<directive> <justification>
//
// where <directive> is A's DirectiveName (e.g. "ordered" for maporder) and
// <justification> is non-empty: an annotation must say *why* the invariant
// does not apply, not merely switch the check off. This is the single
// escape hatch shared by every pegasus-lint analyzer.
const DirectivePrefix = "//lint:"

// Suppressed reports whether a diagnostic at pos is covered by a
// //lint:<directive> justification comment in file.
func Suppressed(fset *token.FileSet, file *ast.File, pos token.Pos, directive string) bool {
	return SuppressionAt(fset, file, pos, directive).IsValid()
}

// SuppressionAt returns the position of the //lint:<directive> comment
// covering a diagnostic at pos (token.NoPos if none). Drivers use the
// comment position to track which suppressions actually fire, so
// `pegasus-lint` can flag stale annotations in the same run.
func SuppressionAt(fset *token.FileSet, file *ast.File, pos token.Pos, directive string) token.Pos {
	if !pos.IsValid() {
		return token.NoPos
	}
	line := fset.Position(pos).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			cline := fset.Position(c.Pos()).Line
			if cline != line && cline != line-1 {
				continue
			}
			if directiveMatches(c.Text, directive) {
				return c.Pos()
			}
		}
	}
	return token.NoPos
}

// ParseDirective splits a comment's text into its //lint: directive token
// and justification. ok is false when the comment is not a //lint:
// suppression at all. A well-formed suppression has both a directive and a
// non-empty justification; callers decide how to treat malformed ones.
func ParseDirective(text string) (directive, justification string, ok bool) {
	rest, found := strings.CutPrefix(text, DirectivePrefix)
	if !found {
		return "", "", false
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		return rest[:i], strings.TrimSpace(rest[i+1:]), true
	}
	return rest, "", true
}

// directiveMatches reports whether comment text is a well-formed
// suppression for directive: exact token match plus a non-empty
// justification.
func directiveMatches(text, directive string) bool {
	if !strings.HasPrefix(text, DirectivePrefix) {
		return false
	}
	rest := strings.TrimPrefix(text, DirectivePrefix)
	if !strings.HasPrefix(rest, directive) {
		return false
	}
	rest = rest[len(directive):]
	// Require a separator then at least one non-space character of
	// justification; "//lint:ordered" alone does not suppress.
	if len(rest) == 0 || (rest[0] != ' ' && rest[0] != '\t') {
		return false
	}
	return strings.TrimSpace(rest) != ""
}
