package eval

import "testing"

// TestE10RealProto runs the registered experiment end to end: real DNS,
// real net/http through the neutralizer under the E7-trained DPI tap,
// and the audit cells — all self-enforced by verifyRealProto.
func TestE10RealProto(t *testing.T) {
	res := runExp(t, "E10")
	t.Logf("\n%s", res)
}
