package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"zkflow/internal/netflow"
)

// MaxDepth bounds predicate nesting (and therefore the guest's
// evaluation stack).
const MaxDepth = 32

// ErrParse wraps every syntax or validation error.
var ErrParse = errors.New("query: parse error")

// tokKind classifies lexer tokens.
type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokInt
	tokString
	tokOp     // comparison operators
	tokLParen //nolint:revive
	tokRParen
	tokStar
	tokSemi
	tokComma
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// lex tokenises the input.
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '(':
			toks = append(toks, token{tokLParen, "(", i})
			i++
		case c == ')':
			toks = append(toks, token{tokRParen, ")", i})
			i++
		case c == '*':
			toks = append(toks, token{tokStar, "*", i})
			i++
		case c == ';':
			toks = append(toks, token{tokSemi, ";", i})
			i++
		case c == ',':
			toks = append(toks, token{tokComma, ",", i})
			i++
		case c == '=':
			toks = append(toks, token{tokOp, "=", i})
			i++
		case c == '!':
			if i+1 < len(src) && src[i+1] == '=' {
				toks = append(toks, token{tokOp, "!=", i})
				i += 2
			} else {
				return nil, fmt.Errorf("%w: stray '!' at %d", ErrParse, i)
			}
		case c == '<' || c == '>':
			op := string(c)
			if i+1 < len(src) && src[i+1] == '=' {
				op += "="
				i++
			} else if c == '<' && i+1 < len(src) && src[i+1] == '>' {
				op = "!="
				i++
			}
			toks = append(toks, token{tokOp, op, i})
			i++
		case c == '"' || c == '\'':
			quote := c
			j := i + 1
			for j < len(src) && src[j] != quote {
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("%w: unterminated string at %d", ErrParse, i)
			}
			toks = append(toks, token{tokString, src[i+1 : j], i})
			i = j + 1
		case unicode.IsDigit(rune(c)):
			j := i
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == 'x' ||
				('a' <= src[j] && src[j] <= 'f') || ('A' <= src[j] && src[j] <= 'F')) {
				j++
			}
			toks = append(toks, token{tokInt, src[i:j], i})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) || src[j] == '_') {
				j++
			}
			toks = append(toks, token{tokIdent, src[i:j], i})
			i = j
		default:
			return nil, fmt.Errorf("%w: unexpected character %q at %d", ErrParse, c, i)
		}
	}
	toks = append(toks, token{tokEOF, "", len(src)})
	return toks, nil
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

// keyword consumes an identifier with the given (case-insensitive)
// text.
func (p *parser) keyword(kw string) error {
	t := p.next()
	if t.kind != tokIdent || !strings.EqualFold(t.text, kw) {
		return fmt.Errorf("%w: expected %s at position %d, found %q", ErrParse, kw, t.pos, t.text)
	}
	return nil
}

func (p *parser) isKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// Parse parses and validates one query.
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q := &Query{}
	if err := p.keyword("SELECT"); err != nil {
		return nil, err
	}
	aggTok := p.next()
	if aggTok.kind != tokIdent {
		return nil, fmt.Errorf("%w: expected aggregate at %d", ErrParse, aggTok.pos)
	}
	switch strings.ToUpper(aggTok.text) {
	case "COUNT":
		q.Agg = AggCount
	case "SUM":
		q.Agg = AggSum
	case "AVG":
		q.Agg = AggAvg
	case "MIN":
		q.Agg = AggMin
	case "MAX":
		q.Agg = AggMax
	default:
		return nil, fmt.Errorf("%w: unknown aggregate %q", ErrParse, aggTok.text)
	}
	if t := p.next(); t.kind != tokLParen {
		return nil, fmt.Errorf("%w: expected '(' after %s", ErrParse, aggTok.text)
	}
	if q.Agg == AggCount {
		if t := p.next(); t.kind != tokStar {
			return nil, fmt.Errorf("%w: COUNT takes '*'", ErrParse)
		}
	} else {
		t := p.next()
		if t.kind != tokIdent {
			return nil, fmt.Errorf("%w: expected field name at %d", ErrParse, t.pos)
		}
		f, ok := FieldByName(strings.ToLower(t.text))
		if !ok {
			return nil, fmt.Errorf("%w: unknown field %q", ErrParse, t.text)
		}
		if f.IsIP {
			return nil, fmt.Errorf("%w: cannot aggregate IP field %q", ErrParse, f.Name)
		}
		q.Field = f
	}
	if t := p.next(); t.kind != tokRParen {
		return nil, fmt.Errorf("%w: expected ')' at %d", ErrParse, t.pos)
	}
	if err := p.keyword("FROM"); err != nil {
		return nil, err
	}
	tbl := p.next()
	if tbl.kind != tokIdent || !strings.EqualFold(tbl.text, "clogs") {
		return nil, fmt.Errorf("%w: unknown table %q (only clogs)", ErrParse, tbl.text)
	}
	if p.isKeyword("WHERE") {
		p.next()
		expr, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = expr
	}
	if p.peek().kind == tokSemi {
		p.next()
	}
	if t := p.peek(); t.kind != tokEOF {
		return nil, fmt.Errorf("%w: trailing input %q at %d", ErrParse, t.text, t.pos)
	}
	if d := q.Depth(); d > MaxDepth {
		return nil, fmt.Errorf("%w: predicate depth %d exceeds %d", ErrParse, d, MaxDepth)
	}
	return q, nil
}

// MustParse is Parse that panics on error (for statically known
// queries in examples and tests).
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("OR") {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.isKeyword("AND") {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.isKeyword("NOT") {
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Not{E: e}, nil
	}
	if p.peek().kind == tokLParen {
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if t := p.next(); t.kind != tokRParen {
			return nil, fmt.Errorf("%w: expected ')' at %d", ErrParse, t.pos)
		}
		return e, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	ft := p.next()
	if ft.kind != tokIdent {
		return nil, fmt.Errorf("%w: expected field at %d, found %q", ErrParse, ft.pos, ft.text)
	}
	f, ok := FieldByName(strings.ToLower(ft.text))
	if !ok {
		return nil, fmt.Errorf("%w: unknown field %q", ErrParse, ft.text)
	}
	// IN (v1, v2, ...) desugars to a disjunction of equalities;
	// BETWEEN lo AND hi desugars to a conjunction of bounds.
	if p.isKeyword("IN") {
		p.next()
		return p.parseIn(f)
	}
	if p.isKeyword("BETWEEN") {
		p.next()
		return p.parseBetween(f)
	}
	ot := p.next()
	if ot.kind != tokOp {
		return nil, fmt.Errorf("%w: expected comparison after %s at %d", ErrParse, f.Name, ot.pos)
	}
	var op CmpOp
	switch ot.text {
	case "=":
		op = OpEq
	case "!=":
		op = OpNe
	case "<":
		op = OpLt
	case "<=":
		op = OpLe
	case ">":
		op = OpGt
	case ">=":
		op = OpGe
	}
	val, err := p.parseValue(f)
	if err != nil {
		return nil, err
	}
	return &Cmp{Field: f, Op: op, Value: val}, nil
}

// parseValue parses one literal for field f.
func (p *parser) parseValue(f Field) (uint32, error) {
	vt := p.next()
	switch vt.kind {
	case tokInt:
		if f.IsIP {
			return 0, fmt.Errorf("%w: field %s takes a quoted IP", ErrParse, f.Name)
		}
		v, err := strconv.ParseUint(vt.text, 0, 32)
		if err != nil {
			return 0, fmt.Errorf("%w: bad integer %q: %v", ErrParse, vt.text, err)
		}
		return uint32(v), nil
	case tokString:
		if !f.IsIP {
			return 0, fmt.Errorf("%w: field %s takes integers, not strings", ErrParse, f.Name)
		}
		v, err := netflow.ParseIPv4(vt.text)
		if err != nil {
			return 0, fmt.Errorf("%w: bad IP %q: %v", ErrParse, vt.text, err)
		}
		return v, nil
	default:
		return 0, fmt.Errorf("%w: expected value at %d", ErrParse, vt.pos)
	}
}

// parseIn parses "(v1, v2, ...)" after "field IN".
func (p *parser) parseIn(f Field) (Expr, error) {
	if t := p.next(); t.kind != tokLParen {
		return nil, fmt.Errorf("%w: expected '(' after IN at %d", ErrParse, t.pos)
	}
	var expr Expr
	for {
		v, err := p.parseValue(f)
		if err != nil {
			return nil, err
		}
		cmp := &Cmp{Field: f, Op: OpEq, Value: v}
		if expr == nil {
			expr = cmp
		} else {
			expr = &Or{L: expr, R: cmp}
		}
		t := p.next()
		if t.kind == tokRParen {
			return expr, nil
		}
		if t.kind != tokComma {
			return nil, fmt.Errorf("%w: expected ',' or ')' in IN list at %d", ErrParse, t.pos)
		}
	}
}

// parseBetween parses "lo AND hi" after "field BETWEEN" (inclusive).
func (p *parser) parseBetween(f Field) (Expr, error) {
	lo, err := p.parseValue(f)
	if err != nil {
		return nil, err
	}
	if err := p.keyword("AND"); err != nil {
		return nil, err
	}
	hi, err := p.parseValue(f)
	if err != nil {
		return nil, err
	}
	if lo > hi {
		return nil, fmt.Errorf("%w: BETWEEN bounds inverted (%d > %d)", ErrParse, lo, hi)
	}
	return &And{
		L: &Cmp{Field: f, Op: OpGe, Value: lo},
		R: &Cmp{Field: f, Op: OpLe, Value: hi},
	}, nil
}
