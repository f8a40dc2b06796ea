// Package token defines the lexical tokens of the Indus domain-specific
// language (Figure 4 of the Hydra paper) together with source positions.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds.
const (
	ILLEGAL Kind = iota
	EOF

	// Literals and identifiers.
	IDENT  // tenant, eg_port
	INT    // 42, 0x2A, 0b1010
	STRING // "hdr.ipv4.src_addr" (annotation payloads)

	// Declaration modifiers (§3.2: variable kinds).
	TELE
	SENSOR
	HEADER
	CONTROL

	// Types.
	BIT
	BOOL
	SET
	DICT

	// Statements.
	IF
	ELSIF
	ELSE
	FOR
	IN
	PASS
	REPORT
	REJECT

	// Boolean literals.
	TRUE
	FALSE

	// Arithmetic.
	PLUS    // +
	MINUS   // -
	STAR    // *
	SLASH   // /
	PERCENT // %

	// Bitwise.
	TILDE // ~
	AMP   // &
	PIPE  // |
	CARET // ^
	SHL   // <<
	SHR   // >>

	// Comparison and logic.
	EQ   // ==
	NEQ  // !=
	LT   // <
	LEQ  // <=
	GT   // >
	GEQ  // >=
	NOT  // !
	LAND // &&
	LOR  // ||

	// Assignment.
	ASSIGN      // =
	PLUSASSIGN  // +=
	MINUSASSIGN // -=

	// Punctuation.
	LPAREN    // (
	RPAREN    // )
	LBRACE    // {
	RBRACE    // }
	LBRACKET  // [
	RBRACKET  // ]
	COMMA     // ,
	SEMICOLON // ;
	DOT       // .
	AT        // @
)

var kindNames = map[Kind]string{
	ILLEGAL: "ILLEGAL", EOF: "EOF", IDENT: "IDENT", INT: "INT", STRING: "STRING",
	TELE: "tele", SENSOR: "sensor", HEADER: "header", CONTROL: "control",
	BIT: "bit", BOOL: "bool", SET: "set", DICT: "dict",
	IF: "if", ELSIF: "elsif", ELSE: "else", FOR: "for", IN: "in",
	PASS: "pass", REPORT: "report", REJECT: "reject", TRUE: "true", FALSE: "false",
	PLUS: "+", MINUS: "-", STAR: "*", SLASH: "/", PERCENT: "%",
	TILDE: "~", AMP: "&", PIPE: "|", CARET: "^", SHL: "<<", SHR: ">>",
	EQ: "==", NEQ: "!=", LT: "<", LEQ: "<=", GT: ">", GEQ: ">=",
	NOT: "!", LAND: "&&", LOR: "||",
	ASSIGN: "=", PLUSASSIGN: "+=", MINUSASSIGN: "-=",
	LPAREN: "(", RPAREN: ")", LBRACE: "{", RBRACE: "}",
	LBRACKET: "[", RBRACKET: "]", COMMA: ",", SEMICOLON: ";", DOT: ".", AT: "@",
}

// String returns the literal spelling for operators and keywords, or the
// class name for identifiers and literals.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"tele": TELE, "sensor": SENSOR, "header": HEADER, "control": CONTROL,
	"bit": BIT, "bool": BOOL, "set": SET, "dict": DICT,
	"if": IF, "elsif": ELSIF, "else": ELSE, "for": FOR, "in": IN,
	"pass": PASS, "report": REPORT, "reject": REJECT,
	"true": TRUE, "false": FALSE,
}

// Lookup maps an identifier spelling to its keyword kind, or IDENT.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return IDENT
}

// Pos is a source position: 1-based line and column plus the file name the
// source was loaded from (may be empty for inline programs).
type Pos struct {
	File string
	Line int
	Col  int
}

// String renders the position in file:line:col form.
func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a single lexeme with its position and literal text.
type Token struct {
	Kind Kind
	Lit  string // literal text for IDENT, INT, STRING
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT, STRING, ILLEGAL:
		return fmt.Sprintf("%s(%q)", kindNames[t.Kind], t.Lit)
	default:
		return t.Kind.String()
	}
}

// Precedence returns the binary-operator precedence for the parser:
// higher binds tighter; 0 means not a binary operator.
func (k Kind) Precedence() int {
	switch k {
	case LOR:
		return 1
	case LAND:
		return 2
	case PIPE:
		return 3
	case CARET:
		return 4
	case AMP:
		return 5
	case EQ, NEQ:
		return 6
	case LT, LEQ, GT, GEQ, IN:
		return 7
	case PLUS, MINUS:
		return 9
	case STAR, SLASH, PERCENT, SHL, SHR:
		return 10
	}
	return 0
}
