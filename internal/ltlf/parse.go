package ltlf

import (
	"fmt"
	"strings"
	"unicode"
)

// ParseFormula parses LTLf surface syntax:
//
//	atoms:      lowercase identifiers (p, at_spine)
//	unary:      ! φ, X φ (next), F φ (eventually), G φ (globally)
//	binary:     φ & ψ, φ | ψ, φ U ψ   (precedence: ! X F G > & > | > U)
//	grouping:   ( φ )
//
// e.g. the §3.1 no-revisit property: "G !(a & X F a)".
func ParseFormula(src string) (Formula, error) {
	p := &formulaParser{toks: lexFormula(src)}
	f, err := p.parseUntil()
	if err != nil {
		return nil, err
	}
	if p.pos < len(p.toks) {
		return nil, fmt.Errorf("ltlf: unexpected %q after formula", p.toks[p.pos])
	}
	return f, nil
}

func lexFormula(src string) []string {
	var toks []string
	i := 0
	for i < len(src) {
		c := rune(src[i])
		switch {
		case unicode.IsSpace(c):
			i++
		case strings.ContainsRune("!&|()XFGU", c):
			toks = append(toks, string(c))
			i++
		case unicode.IsLower(c) || c == '_':
			j := i
			for j < len(src) && (isWordByte(src[j])) {
				j++
			}
			toks = append(toks, src[i:j])
			i = j
		default:
			toks = append(toks, "\x00"+string(c)) // marked illegal
			i++
		}
	}
	return toks
}

// isWordByte accepts atom-name bytes; uppercase letters are excluded
// because X/F/G/U are operators.
func isWordByte(b byte) bool {
	return b == '_' || b >= 'a' && b <= 'z' || b >= '0' && b <= '9'
}

type formulaParser struct {
	toks []string
	pos  int
}

func (p *formulaParser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *formulaParser) next() string {
	t := p.peek()
	if t != "" {
		p.pos++
	}
	return t
}

// parseUntil handles the lowest-precedence, right-associative U.
func (p *formulaParser) parseUntil() (Formula, error) {
	l, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	if p.peek() == "U" {
		p.next()
		r, err := p.parseUntil()
		if err != nil {
			return nil, err
		}
		return Until{L: l, R: r}, nil
	}
	return l, nil
}

func (p *formulaParser) parseOr() (Formula, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.peek() == "|" {
		p.next()
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Or{L: l, R: r}
	}
	return l, nil
}

func (p *formulaParser) parseAnd() (Formula, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.peek() == "&" {
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = And{L: l, R: r}
	}
	return l, nil
}

func (p *formulaParser) parseUnary() (Formula, error) {
	switch t := p.peek(); t {
	case "!":
		p.next()
		f, err := p.parseUnary()
		return Not{F: f}, err
	case "X":
		p.next()
		f, err := p.parseUnary()
		return Next{F: f}, err
	case "F":
		p.next()
		f, err := p.parseUnary()
		return Eventually{F: f}, err
	case "G":
		p.next()
		f, err := p.parseUnary()
		return Globally{F: f}, err
	case "(":
		p.next()
		f, err := p.parseUntil()
		if err != nil {
			return nil, err
		}
		if p.next() != ")" {
			return nil, fmt.Errorf("ltlf: missing closing parenthesis")
		}
		return f, nil
	case "":
		return nil, fmt.Errorf("ltlf: unexpected end of formula")
	default:
		if strings.HasPrefix(t, "\x00") {
			return nil, fmt.Errorf("ltlf: illegal character %q", t[1:])
		}
		if t == ")" || t == "&" || t == "|" || t == "U" {
			return nil, fmt.Errorf("ltlf: unexpected %q", t)
		}
		p.next()
		return Atom{Name: t}, nil
	}
}
