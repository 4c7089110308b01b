package cadql

import (
	"strings"
	"testing"
)

// parseSeeds are statements across the grammar plus broken fragments,
// shared by the parser and recovery fuzz targets.
var parseSeeds = []string{
	"SELECT * FROM t",
	"SELECT a, b FROM t WHERE x = 1 AND y BETWEEN 2 AND 3 ORDER BY a DESC LIMIT 5",
	"CREATE CADVIEW v AS SET pivot = Make SELECT Price FROM cars LIMIT COLUMNS 5 IUNITS 3",
	"HIGHLIGHT SIMILAR IUNITS IN v WHERE SIMILARITY(Chevrolet, 3) > 3.5",
	"REORDER ROWS IN v ORDER BY SIMILARITY('Land Rover') DESC",
	"SHOW TABLES",
	"DESCRIBE t",
	"DROP CADVIEW v",
	"EXPLAIN CREATE CADVIEW v AS SET pivot = p SELECT FROM t",
	"SELECT * FROM a, b WHERE Make IN (x, 'y z') OR NOT (q != 10K)",
	"select * from t where a <> -1.5M;",
	"'", "((", "SELECT", "= = =", "WHERE WHERE", "10K10K",
}

// FuzzParse asserts the parser never panics and that accepted statements
// are well-formed enough to re-parse basic invariants.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		stmt, err := Parse(input)
		if err != nil {
			return // rejection is fine; panics are not
		}
		switch st := stmt.(type) {
		case *SelectStmt:
			if len(st.Tables) == 0 {
				t.Errorf("accepted SELECT without tables: %q", input)
			}
			if st.Limit < 0 {
				t.Errorf("negative limit from %q", input)
			}
		case *CreateCADViewStmt:
			if st.Name == "" || st.Pivot == "" || len(st.Tables) == 0 {
				t.Errorf("accepted incomplete CREATE CADVIEW: %q", input)
			}
		case *HighlightStmt:
			if st.Rank < 1 {
				t.Errorf("accepted non-positive rank: %q", input)
			}
		}
	})
}

// FuzzLex asserts the lexer terminates and never panics, and that token
// text always comes from the input (no fabricated content) except for
// normalized operators.
func FuzzLex(f *testing.F) {
	for _, s := range []string{"a = 'b c' 10K <= >= != <>", "'", "\x00\xff", "1.2.3.4"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		toks, err := lex(input)
		if err != nil {
			return
		}
		if len(toks) == 0 || toks[len(toks)-1].kind != tokEOF {
			t.Errorf("lex(%q): missing EOF token", input)
		}
		for _, tok := range toks[:len(toks)-1] {
			if tok.kind == tokIdent && !strings.Contains(input, tok.text) {
				t.Errorf("lex(%q): fabricated identifier %q", input, tok.text)
			}
		}
	})
}

// FuzzRecover asserts recovery-mode parsing never panics, reports a
// frontier inside the input, and returns exactly one of a statement and
// an error.
func FuzzRecover(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		rec := Recover(input)
		if rec.Pos < 0 || rec.Pos > len(input) {
			t.Errorf("Recover(%q).Pos = %d, outside [0, %d]", input, rec.Pos, len(input))
		}
		if (rec.Stmt == nil) == (rec.Err == nil) {
			t.Errorf("Recover(%q): Stmt %v, Err %v; want exactly one", input, rec.Stmt, rec.Err)
		}
	})
}
