package bytecode

// The bit-serial reference codec of codec_test.go, for the external
// tests that need the compiler to build their layouts.
var (
	RefPutBits = refPutBits
	RefGetBits = refGetBits
)
