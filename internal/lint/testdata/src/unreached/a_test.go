package main

import "testing"

func TestOnlyTested(t *testing.T) {
	kept()
	if onlyTested() != 2 {
		t.Fatal("onlyTested")
	}
}
