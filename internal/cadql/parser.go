package cadql

import (
	"fmt"
	"math"
	"strings"

	"dbexplorer/internal/expr"
)

// Parse parses one CADQL statement. A trailing semicolon is allowed.
func Parse(input string) (Stmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	return parseToks(toks, nil)
}

// parseToks runs the recursive-descent parse over lexed tokens. A
// non-nil recorder turns on recovery mode: every failed token test is
// recorded as an expectation at its position (farthest position wins),
// and completed WHERE predicates plus FROM tables are captured for the
// suggestion service. With rec == nil the behavior and error messages
// are exactly the classic Parse path.
func parseToks(toks []token, rec *recorder) (Stmt, error) {
	p := &parser{toks: toks, rec: rec}
	var stmt Stmt
	var err error
	switch {
	case p.peekKeyword("SELECT"):
		stmt, err = p.parseSelect()
	case p.peekKeyword("CREATE"):
		stmt, err = p.parseCreateCADView()
	case p.peekKeyword("HIGHLIGHT"):
		stmt, err = p.parseHighlight()
	case p.peekKeyword("REORDER"):
		stmt, err = p.parseReorder()
	case p.peekKeyword("SHOW"):
		stmt, err = p.parseShow()
	case p.peekKeyword("DESCRIBE"), p.peekKeyword("DESC"):
		stmt, err = p.parseDescribe()
	case p.peekKeyword("DROP"):
		stmt, err = p.parseDrop()
	case p.peekKeyword("EXPLAIN"):
		p.pos++
		inner, innerErr := p.parseCreateCADView()
		if innerErr != nil {
			err = innerErr
			break
		}
		stmt = &ExplainStmt{Create: inner.(*CreateCADViewStmt)}
	default:
		return nil, fmt.Errorf("cadql: statement must start with SELECT, CREATE CADVIEW, HIGHLIGHT, REORDER, SHOW, DESCRIBE, or DROP; got %s", p.peek())
	}
	if err != nil {
		return nil, err
	}
	p.acceptPunct(";")
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("cadql: unexpected trailing %s", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int

	// rec, when non-nil, collects the expectations behind every failed
	// token test (recovery mode; see recover.go). curAttr/curOp hold the
	// predicate context while parsePredicate runs, so value and number
	// expectations know which attribute they complete.
	rec     *recorder
	curAttr string
	curOp   string
}

func (p *parser) peek() token { return p.toks[p.pos] }

// want records a failed expectation at the current token (recovery mode
// only). Value and number expectations carry the predicate context.
func (p *parser) want(category, label string) {
	if p.rec == nil {
		return
	}
	e := Expectation{Label: label, Category: category}
	if category == ExpectValue || category == ExpectNumber || category == ExpectOp {
		e.Attr, e.Op = p.curAttr, p.curOp
	}
	p.rec.want(p.pos, e)
}

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	if t.kind == tokIdent && strings.EqualFold(t.text, kw) {
		return true
	}
	p.want(ExpectKeyword, strings.ToUpper(kw))
	return false
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return fmt.Errorf("cadql: expected %s, got %s", kw, p.peek())
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.pos++
		return true
	}
	p.want(ExpectPunct, s)
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return fmt.Errorf("cadql: expected %q, got %s", s, p.peek())
	}
	return nil
}

func (p *parser) acceptOp(s string) bool {
	t := p.peek()
	if t.kind == tokOp && t.text == s {
		p.pos++
		return true
	}
	p.want(ExpectOp, s)
	return false
}

// expectIdent returns the next token's text if it is an identifier or
// quoted string.
func (p *parser) expectIdent(what string) (string, error) {
	t := p.peek()
	if t.kind == tokIdent || t.kind == tokString {
		p.pos++
		return t.text, nil
	}
	p.want(identCategory(what), what)
	return "", fmt.Errorf("cadql: expected %s, got %s", what, t)
}

// identCategory maps expectIdent's description to an expectation
// category, so the suggestion layer knows whether an attribute name, a
// table name, or a value literal completes the statement.
func identCategory(what string) string {
	switch {
	case strings.Contains(what, "attribute"), what == "column name":
		return ExpectAttribute
	case strings.Contains(what, "table"):
		return ExpectTable
	case strings.Contains(what, "value"):
		return ExpectValue
	default:
		return ExpectName
	}
}

func (p *parser) expectNumber(what string) (float64, error) {
	t := p.peek()
	if t.kind != tokNumber {
		p.want(ExpectNumber, what)
		return 0, fmt.Errorf("cadql: expected %s, got %s", what, t)
	}
	p.pos++
	return t.num, nil
}

var reservedAfterColumn = map[string]bool{
	"FROM": true, "WHERE": true, "LIMIT": true, "ORDER": true,
	"IUNITS": true, "AND": true, "OR": true, "NOT": true,
}

func (p *parser) parseSelect() (Stmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	if !p.acceptPunct("*") {
		cols, err := p.parseNameList()
		if err != nil {
			return nil, err
		}
		s.Columns = cols
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tables, err := p.parseFromList()
	if err != nil {
		return nil, err
	}
	s.Tables = tables
	if p.acceptKeyword("WHERE") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		keys, err := p.parseOrderKeys()
		if err != nil {
			return nil, err
		}
		s.OrderBy = keys
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.expectNumber("LIMIT count")
		if err != nil {
			return nil, err
		}
		if n < 1 || n != math.Trunc(n) {
			return nil, fmt.Errorf("cadql: LIMIT must be a positive integer, got %g", n)
		}
		s.Limit = int(n)
	}
	return s, nil
}

// parseFromList parses the FROM clause's comma-separated table names.
func (p *parser) parseFromList() ([]string, error) {
	var tables []string
	for {
		name, err := p.expectIdent("table name")
		if err != nil {
			return nil, err
		}
		tables = append(tables, name)
		if !p.acceptPunct(",") {
			if p.rec != nil {
				p.rec.tables = append(p.rec.tables, tables...)
			}
			return tables, nil
		}
	}
}

func (p *parser) parseOrderKeys() ([]OrderKey, error) {
	var keys []OrderKey
	for {
		attr, err := p.expectIdent("ORDER BY attribute")
		if err != nil {
			return nil, err
		}
		key := OrderKey{Attr: attr}
		if p.acceptKeyword("DESC") {
			key.Desc = true
		} else {
			p.acceptKeyword("ASC")
		}
		keys = append(keys, key)
		if !p.acceptPunct(",") {
			return keys, nil
		}
	}
}

func (p *parser) parseNameList() ([]string, error) {
	var names []string
	for {
		name, err := p.expectIdent("column name")
		if err != nil {
			return nil, err
		}
		if reservedAfterColumn[strings.ToUpper(name)] {
			return nil, fmt.Errorf("cadql: unexpected keyword %q in column list", name)
		}
		names = append(names, name)
		if !p.acceptPunct(",") {
			return names, nil
		}
	}
}

func (p *parser) parseCreateCADView() (Stmt, error) {
	if err := p.expectKeyword("CREATE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("CADVIEW"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("CADVIEW name")
	if err != nil {
		return nil, err
	}
	s := &CreateCADViewStmt{Name: name}
	if err := p.expectKeyword("AS"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("PIVOT"); err != nil {
		return nil, err
	}
	if !p.acceptOp("=") {
		return nil, fmt.Errorf("cadql: expected '=' after SET pivot, got %s", p.peek())
	}
	pivot, err := p.expectIdent("pivot attribute")
	if err != nil {
		return nil, err
	}
	s.Pivot = pivot
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	if !p.acceptPunct("*") && !p.peekKeyword("FROM") {
		cols, err := p.parseNameList()
		if err != nil {
			return nil, err
		}
		s.Compare = cols
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	tables, err := p.parseFromList()
	if err != nil {
		return nil, err
	}
	s.Tables = tables
	if p.acceptKeyword("WHERE") {
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	if p.acceptKeyword("LIMIT") {
		if err := p.expectKeyword("COLUMNS"); err != nil {
			return nil, err
		}
		n, err := p.expectNumber("LIMIT COLUMNS count")
		if err != nil {
			return nil, err
		}
		if n < 1 || n != math.Trunc(n) {
			return nil, fmt.Errorf("cadql: LIMIT COLUMNS must be a positive integer, got %g", n)
		}
		s.MaxCompare = int(n)
	}
	if p.acceptKeyword("IUNITS") {
		n, err := p.expectNumber("IUNITS count")
		if err != nil {
			return nil, err
		}
		if n < 1 || n != math.Trunc(n) {
			return nil, fmt.Errorf("cadql: IUNITS must be a positive integer, got %g", n)
		}
		s.IUnits = int(n)
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		keys, err := p.parseOrderKeys()
		if err != nil {
			return nil, err
		}
		s.OrderBy = keys
	}
	return s, nil
}

func (p *parser) parseHighlight() (Stmt, error) {
	for _, kw := range []string{"HIGHLIGHT", "SIMILAR", "IUNITS", "IN"} {
		if err := p.expectKeyword(kw); err != nil {
			return nil, err
		}
	}
	view, err := p.expectIdent("CADVIEW name")
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("WHERE"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SIMILARITY"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	val, err := p.expectIdent("pivot value")
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	rank, err := p.expectNumber("IUnit rank")
	if err != nil {
		return nil, err
	}
	if rank < 1 || rank != math.Trunc(rank) {
		return nil, fmt.Errorf("cadql: IUnit rank must be a positive integer, got %g", rank)
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if !p.acceptOp(">") && !p.acceptOp(">=") {
		return nil, fmt.Errorf("cadql: expected '>' after SIMILARITY(...), got %s", p.peek())
	}
	tau, err := p.expectNumber("similarity threshold")
	if err != nil {
		return nil, err
	}
	return &HighlightStmt{View: view, PivotValue: val, Rank: int(rank), Threshold: tau}, nil
}

func (p *parser) parseReorder() (Stmt, error) {
	for _, kw := range []string{"REORDER", "ROWS", "IN"} {
		if err := p.expectKeyword(kw); err != nil {
			return nil, err
		}
	}
	view, err := p.expectIdent("CADVIEW name")
	if err != nil {
		return nil, err
	}
	for _, kw := range []string{"ORDER", "BY", "SIMILARITY"} {
		if err := p.expectKeyword(kw); err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	val, err := p.expectIdent("pivot value")
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	s := &ReorderStmt{View: view, PivotValue: val, Desc: true}
	if p.acceptKeyword("ASC") {
		s.Desc = false
	} else {
		p.acceptKeyword("DESC")
	}
	return s, nil
}

func (p *parser) parseShow() (Stmt, error) {
	if err := p.expectKeyword("SHOW"); err != nil {
		return nil, err
	}
	switch {
	case p.acceptKeyword("TABLES"):
		return &ShowStmt{What: "TABLES"}, nil
	case p.acceptKeyword("CADVIEWS"):
		return &ShowStmt{What: "CADVIEWS"}, nil
	default:
		return nil, fmt.Errorf("cadql: expected TABLES or CADVIEWS after SHOW, got %s", p.peek())
	}
}

func (p *parser) parseDescribe() (Stmt, error) {
	p.pos++ // DESCRIBE or DESC
	table, err := p.expectIdent("table name")
	if err != nil {
		return nil, err
	}
	return &DescribeStmt{Table: table}, nil
}

func (p *parser) parseDrop() (Stmt, error) {
	if err := p.expectKeyword("DROP"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("CADVIEW"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent("CADVIEW name")
	if err != nil {
		return nil, err
	}
	return &DropStmt{View: name}, nil
}

// parseOr parses a WHERE clause disjunction. In recovery mode every
// predicate completed inside a genuine disjunction is marked as such —
// the suggestion prefix only trusts conjunctively binding predicates.
func (p *parser) parseOr() (e expr.Expr, err error) {
	mark, sawOr := 0, false
	if p.rec != nil {
		mark = len(p.rec.preds)
		defer func() {
			if sawOr {
				for i := mark; i < len(p.rec.preds); i++ {
					p.rec.preds[i].disjunct = true
				}
			}
		}()
	}
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	kids := []expr.Expr{left}
	for p.acceptKeyword("OR") {
		sawOr = true
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return left, nil
	}
	return &expr.Or{Kids: kids}, nil
}

func (p *parser) parseAnd() (expr.Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	kids := []expr.Expr{left}
	for p.acceptKeyword("AND") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		kids = append(kids, right)
	}
	if len(kids) == 1 {
		return left, nil
	}
	return &expr.And{Kids: kids}, nil
}

func (p *parser) parseUnary() (expr.Expr, error) {
	if p.acceptKeyword("NOT") {
		if p.rec != nil {
			mark := len(p.rec.preds)
			defer func() {
				for i := mark; i < len(p.rec.preds); i++ {
					p.rec.preds[i].negated = true
				}
			}()
		}
		kid, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &expr.Not{Kid: kid}, nil
	}
	if p.acceptPunct("(") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parsePredicate()
}

// recordPred captures one completed predicate for the suggestion prefix
// (recovery mode only).
func (p *parser) recordPred(e expr.Expr) {
	if p.rec != nil {
		p.rec.preds = append(p.rec.preds, recPred{e: e})
	}
}

func (p *parser) parsePredicate() (expr.Expr, error) {
	attr, err := p.expectIdent("attribute name")
	if err != nil {
		return nil, err
	}
	p.curAttr = attr
	defer func() { p.curAttr, p.curOp = "", "" }()
	switch {
	case p.acceptKeyword("BETWEEN"):
		p.curOp = "BETWEEN"
		lo, err := p.expectNumber("BETWEEN lower bound")
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.expectNumber("BETWEEN upper bound")
		if err != nil {
			return nil, err
		}
		e := &expr.Between{Attr: attr, Lo: lo, Hi: hi}
		p.recordPred(e)
		return e, nil
	case p.acceptKeyword("IN"):
		p.curOp = "IN"
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var values []string
		for {
			v, err := p.expectIdent("IN list value")
			if err != nil {
				return nil, err
			}
			values = append(values, v)
			if !p.acceptPunct(",") {
				break
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		e := &expr.In{Attr: attr, Values: values}
		p.recordPred(e)
		return e, nil
	default:
		t := p.peek()
		if t.kind != tokOp {
			p.want(ExpectOp, "comparison operator")
			return nil, fmt.Errorf("cadql: expected comparison operator after %q, got %s", attr, t)
		}
		p.pos++
		p.curOp = t.text
		var op expr.CmpOp
		switch t.text {
		case "=":
			op = expr.Eq
		case "!=":
			op = expr.Ne
		case "<":
			op = expr.Lt
		case "<=":
			op = expr.Le
		case ">":
			op = expr.Gt
		case ">=":
			op = expr.Ge
		default:
			return nil, fmt.Errorf("cadql: unknown operator %q", t.text)
		}
		v := p.peek()
		switch v.kind {
		case tokNumber:
			p.pos++
			e := &expr.Cmp{Attr: attr, Op: op, Str: v.text, Num: v.num}
			p.recordPred(e)
			return e, nil
		case tokIdent, tokString:
			p.pos++
			// Literal resolves by column type at validation: categorical
			// columns match Str, numeric columns reject NaN.
			e := &expr.Cmp{Attr: attr, Op: op, Str: v.text, Num: math.NaN()}
			p.recordPred(e)
			return e, nil
		default:
			p.want(ExpectValue, "literal")
			return nil, fmt.Errorf("cadql: expected literal after %s, got %s", t.text, v)
		}
	}
}
