package sqlparse

import "strings"

// Print renders a parsed statement back to SQL text. The output is
// canonical (expressions fully parenthesized, explicit AS on aliases) and
// re-parses to an AST equal to the one printed — the round-trip property
// FuzzParse exercises.
func Print(st Stmt) string {
	var sb strings.Builder
	printStmt(&sb, st)
	return sb.String()
}

func printStmt(sb *strings.Builder, st Stmt) {
	switch s := st.(type) {
	case *CreateTable:
		sb.WriteString("CREATE TABLE ")
		if s.IfNotExists {
			sb.WriteString("IF NOT EXISTS ")
		}
		sb.WriteString(s.Name)
		sb.WriteString(" (")
		for i, c := range s.Cols {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.Name)
			sb.WriteString(" INT")
		}
		sb.WriteString(")")

	case *DropTable:
		sb.WriteString("DROP TABLE ")
		if s.IfExists {
			sb.WriteString("IF EXISTS ")
		}
		sb.WriteString(s.Name)

	case *DeleteAll:
		sb.WriteString("DELETE FROM ")
		sb.WriteString(s.Name)

	case *Insert:
		sb.WriteString("INSERT INTO ")
		sb.WriteString(s.Table)
		if len(s.Cols) > 0 {
			sb.WriteString(" (")
			sb.WriteString(strings.Join(s.Cols, ", "))
			sb.WriteString(")")
		}
		if s.Select != nil {
			sb.WriteString(" ")
			printStmt(sb, s.Select)
			return
		}
		sb.WriteString(" VALUES ")
		for i, row := range s.Rows {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("(")
			for j, e := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(e.String())
			}
			sb.WriteString(")")
		}

	case *Select:
		sb.WriteString("SELECT ")
		for i, item := range s.Items {
			if i > 0 {
				sb.WriteString(", ")
			}
			if item.Star {
				sb.WriteString("*")
				continue
			}
			sb.WriteString(item.Expr.String())
			if item.Alias != "" {
				sb.WriteString(" AS ")
				sb.WriteString(item.Alias)
			}
		}
		sb.WriteString(" FROM ")
		for i, ref := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(ref.Table)
			if ref.Alias != "" {
				sb.WriteString(" AS ")
				sb.WriteString(ref.Alias)
			}
		}
		if s.Where != nil {
			sb.WriteString(" WHERE ")
			sb.WriteString(s.Where.String())
		}
		if len(s.GroupBy) > 0 {
			sb.WriteString(" GROUP BY ")
			for i, e := range s.GroupBy {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(e.String())
			}
		}
		if s.Having != nil {
			sb.WriteString(" HAVING ")
			sb.WriteString(s.Having.String())
		}
		if len(s.OrderBy) > 0 {
			sb.WriteString(" ORDER BY ")
			for i, oi := range s.OrderBy {
				if i > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(oi.Expr.String())
				if oi.Desc {
					sb.WriteString(" DESC")
				}
			}
		}

	case *Explain:
		sb.WriteString("EXPLAIN ")
		if s.Analyze {
			sb.WriteString("ANALYZE ")
		}
		printStmt(sb, s.Select)
	}
}
