package scenario

// The scenario AST. A file is a flat list of statements: element
// declarations ("name :: Kind(args)") and chains ("A -> B -> C"). Chains do
// double duty, resolved by the compiler from the kinds of their endpoints:
// between switches they are links; from a traffic source (optionally through
// TokenBucket filters) to a flow they are attachments.

// File is one parsed scenario.
type File struct {
	// Path is the location the file was read from ("" when parsed from
	// memory); Name is its base name without the .ispn extension.
	Path string
	Name string
	// Description is the comment block at the top of the file.
	Description string

	// Decls and Chains each preserve file order; the compiler walks
	// Decls in order, so e.g. flow ids are stable across runs.
	Decls  []*Decl
	Chains []*Chain
	// Events are the timeline blocks ("at 20s { ... }"), in file order.
	Events []*EventBlock
}

// EventBlock is one "at <time> { statements }" timeline block: its
// statements execute, in order, at the given simulated time. Blocks at the
// same timestamp fire in file order (the engine breaks time ties by
// insertion sequence), so timelines are deterministic.
type EventBlock struct {
	AtPos Pos
	At    Value // the event time (a duration)
	Stmts []EventStmt
}

// EventStmt is one statement inside an event block: exactly one of Decl
// (an element that comes into existence at event time — flows go through
// admission control then), Chain (an attachment, or a link modification
// when both endpoints are switches), or Op (a timeline verb).
type EventStmt struct {
	Decl  *Decl
	Chain *Chain
	Op    *EventOp
}

// EventOp is a timeline verb:
//
//	remove f1, f2        flow departure: stop sources, release reservations
//	fail A -> B          take each link of the chain down
//	restore A -> B       bring each link of the chain back up
//	reroute A -> B       move every flow crossing the chain's links
//	renew f (rate R)     change a guaranteed flow's clock rate in place
type EventOp struct {
	Verb    string
	VerbPos Pos
	Names   []Name // remove/renew targets, or fail/restore/reroute chain endpoints
	Duplex  []bool // fail/restore/reroute: whether the arrow between Names[i] and Names[i+1] was "<->"
	Args    []Arg  // renew only
}

// Decl declares one or more elements of a kind: "a, b :: Switch" or
// "conf :: Predicted(rate 85kbps, ...)".
type Decl struct {
	Names   []Name
	Kind    string
	KindPos Pos
	Args    []Arg
}

// Name is an identifier with its position.
type Name struct {
	Text string
	Pos  Pos
}

// Chain is "A -> B <-> C ...", optionally suffixed ":: Link(args)".
type Chain struct {
	Ends []Name
	// Duplex[i] reports whether the arrow between Ends[i] and Ends[i+1]
	// was "<->".
	Duplex []bool
	Attrs  []Arg
}

// Arg is one "key value" argument.
type Arg struct {
	Name    string
	NamePos Pos
	Value   Value
}

// ValueKind discriminates Value.
type ValueKind int

// Value kinds.
const (
	NumberVal ValueKind = iota // 85, 50kbit, 99.9%
	IdentVal                   // fifoplus, on, S1
	ListVal                    // [v, v, …]
	PathVal                    // S1 -> S2 -> S3
)

// Value is an argument value.
type Value struct {
	Pos  Pos
	Kind ValueKind

	Num  float64 // NumberVal: magnitude (unit not yet applied)
	Unit string  // NumberVal: source unit ("" bare, "%" percent, "ms", "kbps", …)
	Str  string  // IdentVal
	List []Value // ListVal
	Path []Name  // PathVal endpoints, ≥ 2
}
