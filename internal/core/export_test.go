package core

import "testing"

// CheckRecharges lets the external tests, which run the controller through
// sim, check every recharge plan (see rechargeCheck). The returned func
// reports the first broken rule and how many plans were scaled.
func CheckRecharges(t testing.TB) func() (scaled int, err error) {
	rc := checkRecharges(t)
	return func() (int, error) { return rc.scaled, rc.err }
}
