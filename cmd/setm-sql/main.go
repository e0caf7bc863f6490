// Command setm-sql is an interactive shell for the bundled relational
// engine: the environment in which the paper's mining queries can be typed
// and run by hand. Statements end with ';'. EXPLAIN SELECT prints the plan
// (merge-join selection, pushdown, grouping) one operator per line.
//
// Usage:
//
//	setm-sql                      # empty database
//	setm-sql -load sales.txt      # preload a SALES table from a data file
//
// Example session (the paper's C_1 query):
//
//	sql> CREATE TABLE c1 (item1 INT, cnt INT);
//	sql> INSERT INTO c1 SELECT s.item, COUNT(*) FROM sales s
//	     GROUP BY s.item HAVING COUNT(*) >= 3;
//	sql> SELECT * FROM c1 ORDER BY item1;
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"setm"
	"setm/internal/engine"
	"setm/internal/tuple"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "setm-sql: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("setm-sql", flag.ContinueOnError)
	fs.SetOutput(stderr)
	load := fs.String("load", "", "transaction file to preload as table 'sales'")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	db := engine.New()
	if *load != "" {
		d, err := setm.LoadDatasetFile(*load)
		if err != nil {
			return err
		}
		schema := tuple.IntSchema("trans_id", "item")
		b := tuple.NewBatch(schema)
		for _, r := range d.SalesRows() {
			b.Cols[0].I = append(b.Cols[0].I, r[0])
			b.Cols[1].I = append(b.Cols[1].I, r[1])
			b.BumpRow()
		}
		if err := db.LoadTableBatch("sales", schema, b, nil); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "loaded %d rows into sales(trans_id, item)\n", b.Len())
	}

	fmt.Fprintln(stdout, "setm-sql — statements end with ';', exit with \\q")
	sc := bufio.NewScanner(stdin)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Fprint(stdout, "sql> ")
		} else {
			fmt.Fprint(stdout, "...> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && (trimmed == "\\q" || trimmed == "exit" || trimmed == "quit") {
			return nil
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			stmt := buf.String()
			buf.Reset()
			execute(db, stmt, stdout)
		}
		prompt()
	}
	return sc.Err()
}

func execute(db *engine.DB, sql string, stdout io.Writer) {
	res, err := db.ExecScript(sql, nil)
	if err != nil {
		fmt.Fprintf(stdout, "error: %v\n", err)
		return
	}
	switch {
	case res == nil:
	case res.Plan != "":
		fmt.Fprint(stdout, res.Plan)
	case res.Schema != nil:
		printResult(res, stdout)
	case res.RowsAffected > 0:
		fmt.Fprintf(stdout, "%d rows affected\n", res.RowsAffected)
	default:
		fmt.Fprintln(stdout, "ok")
	}
}

func printResult(res *engine.Result, stdout io.Writer) {
	names := res.Schema.Names()
	widths := make([]int, len(names))
	for i, n := range names {
		widths[i] = len(n)
	}
	cells := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			s := strconv.FormatInt(v, 10)
			cells[r][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	for i, n := range names {
		fmt.Fprintf(stdout, "%-*s  ", widths[i], n)
	}
	fmt.Fprintln(stdout)
	for i := range names {
		fmt.Fprint(stdout, strings.Repeat("-", widths[i]), "  ")
	}
	fmt.Fprintln(stdout)
	for _, row := range cells {
		for c, s := range row {
			fmt.Fprintf(stdout, "%-*s  ", widths[c], s)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "(%d rows)\n", len(res.Rows))
}
