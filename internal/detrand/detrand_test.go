package detrand

import "testing"

// The vectors below were captured from the seven private copies this
// package replaced (faultsim/portfolio mix64, session sessionMix, gen
// splitmixFin, dir fnvFold, partition fnvMix, session.AssignHash's
// closure). Every seeded fault schedule, portfolio member seed, epoch
// seed, sharded-RMAT graph, and directory journal digest is a function
// of these outputs, so they must never change.

func TestMixAndFinalizerPinned(t *testing.T) {
	for _, c := range []struct{ in, mix, fin uint64 }{
		{0x0, 0xe220a8397b1dcdaf, 0x0},
		{0x1, 0x910a2dec89025cc1, 0x5692161d100b05e5},
		{0x2a, 0xbdd732262feb6e95, 0xa759ea27d4727622},
		{0xd19c, 0x4300680affefb2b3, 0xab7611d682093d7e},
		{0xdeadbeefcafef00d, 0x901d4f652fb472cb, 0x19104ae2406d51c3},
		{0xffffffffffffffff, 0xe4d971771b652c20, 0xb4d055fcf2cbbd7b},
	} {
		if got := Mix64(c.in); got != c.mix {
			t.Errorf("Mix64(%#x) = %#x, want %#x", c.in, got, c.mix)
		}
		if got := Fin64(c.in); got != c.fin {
			t.Errorf("Fin64(%#x) = %#x, want %#x", c.in, got, c.fin)
		}
	}
}

func TestFNVFold64Pinned(t *testing.T) {
	// A chain: each row's state is the previous row's output, so the
	// last row also pins the fold of the whole six-word sequence.
	for _, c := range []struct{ h, x, want uint64 }{
		{FNVOffset64, 0x0, 0xa8c7f832281a39c5},
		{0xa8c7f832281a39c5, 0x1, 0x692558b056101a44},
		{0x692558b056101a44, 0x2a, 0x47f8d18ab869342e},
		{0x47f8d18ab869342e, 0xd19c, 0x99a24032fe849add},
		{0x99a24032fe849add, 0xdeadbeefcafef00d, 0xa9ac014beaff93f6},
		{0xa9ac014beaff93f6, 0xffffffffffffffff, 0x75bfae296387832e},
	} {
		if got := FNVFold64(c.h, c.x); got != c.want {
			t.Errorf("FNVFold64(%#x, %#x) = %#x, want %#x", c.h, c.x, got, c.want)
		}
	}
}
