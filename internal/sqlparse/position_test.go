package sqlparse

import (
	"strings"
	"testing"
)

// TestErrorPositionsThroughComments pins exact 1-based line/col on errors
// behind comments and multi-line input: the byte-scan lexer must track
// positions identically to the character-walking one it replaced.
func TestErrorPositionsThroughComments(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // required "sql:line:col:" prefix of the error
	}{
		{
			name: "error after line comment",
			src:  "SELECT a -- projected column\nFROM t WHERE ?",
			want: "sql:2:14:",
		},
		{
			name: "error after several comment-only lines",
			src:  "-- first\n-- second\n-- third\nSELECT @ FROM t",
			want: "sql:4:8:",
		},
		{
			name: "unterminated string reports opening quote",
			src:  "SELECT a FROM t\nWHERE b = 'oops",
			want: "sql:2:11:",
		},
		{
			name: "bare colon",
			src:  "SELECT a FROM t WHERE b = :",
			want: "sql:1:27:",
		},
		{
			name: "tab counts one column",
			src:  "\t\tSELECT ~ FROM t",
			want: "sql:1:10:",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tc.src)
			}
			if !strings.HasPrefix(err.Error(), tc.want) {
				t.Errorf("Parse(%q) error = %q, want prefix %q", tc.src, err, tc.want)
			}
		})
	}
}

// TestErrorPositionDeepInScript pins line/col on an error deep inside a
// multi-statement ParseScript body, with comments interleaved between and
// inside statements.
func TestErrorPositionDeepInScript(t *testing.T) {
	src := strings.Join([]string{
		"-- SETM pipeline, iteration k=2",       // line 1
		"CREATE TABLE rp2 (trans_id INT,",       // line 2
		"                  item1 INT,",          // line 3
		"                  item2 INT);",         // line 4
		"",                                      // line 5
		"INSERT INTO rp2 -- extension join",     // line 6
		"SELECT p.trans_id, p.item1, q.item",    // line 7
		"FROM r1 p, sales q",                    // line 8
		"WHERE q.trans_id = p.trans_id",         // line 9
		"  AND q.item > p.item1",                // line 10
		"ORDER BY p.trans_id, p.item1, q.item;", // line 11
		"",                                      // line 12
		"SELECT item1, cnt FROM c2",             // line 13
		"WHERE cnt >= 10 AND",                   // line 14
		"      cnt <= ;",                        // line 15: expression missing
	}, "\n")
	_, err := ParseScript(src)
	if err == nil {
		t.Fatal("ParseScript succeeded, want error")
	}
	const want = "sql:15:14:"
	if !strings.HasPrefix(err.Error(), want) {
		t.Errorf("ParseScript error = %q, want prefix %q", err, want)
	}

	// The same script without the broken tail parses, and its token
	// positions survive the comments: probe the last statement's text.
	good := strings.Replace(src, "cnt <= ;", "cnt <= 99;", 1)
	stmts, err := ParseScript(good)
	if err != nil {
		t.Fatalf("ParseScript(good): %v", err)
	}
	if len(stmts) != 3 {
		t.Fatalf("parsed %d statements, want 3", len(stmts))
	}
}

// TestTokenPositionsMultiLine pins token line/col across comments, blank
// lines, and operators.
func TestTokenPositionsMultiLine(t *testing.T) {
	toks, err := tokenize("SELECT a -- c\n\n  FROM t\nWHERE a >= :p")
	if err != nil {
		t.Fatal(err)
	}
	wants := []struct {
		text string
		line int
		col  int
	}{
		{"SELECT", 1, 1},
		{"a", 1, 8},
		{"FROM", 3, 3},
		{"t", 3, 8},
		{"WHERE", 4, 1},
		{"a", 4, 7},
		{">=", 4, 9},
		{"p", 4, 12},
	}
	if len(toks) != len(wants)+1 { // +1 for EOF
		t.Fatalf("token count = %d, want %d", len(toks), len(wants)+1)
	}
	for i, w := range wants {
		if toks[i].Text != w.text || toks[i].Line != w.line || toks[i].Col != w.col {
			t.Errorf("token %d = %q @%d:%d, want %q @%d:%d",
				i, toks[i].Text, toks[i].Line, toks[i].Col, w.text, w.line, w.col)
		}
	}
}
