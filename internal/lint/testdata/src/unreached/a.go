// Package main is the unreached fixture: each function is either reached
// from main by one of the analyzer's rules, or reported.
package main

import (
	"fmt"
	"net/http"
	"slices"
)

// table is a package-level initializer: the function it names is a root.
var table = map[string]func() int{"one": one}

func one() int { return 1 }

// celsius satisfies fmt.Stringer, a standard-library interface, so its
// String method is reached although no module code converts a celsius.
type celsius float64

func (c celsius) String() string { return fmt.Sprintf("%.1fC", float64(c)) }

type server struct{}

// serve is handed to the standard library as a method value.
func (s *server) serve(w http.ResponseWriter, r *http.Request) {}

// compare is handed to the standard library as a function value.
func compare(a, b string) int { return len(a) - len(b) }

// first is reached through an explicit instantiation.
func first[T any](xs []T) T { return xs[0] }

// system is satisfied by light, through settle promoted from *core, while
// *core alone does not satisfy it.
type system interface {
	settle()
	close()
}

type core struct{}

func (*core) settle() {}

type light struct{ *core }

func (light) close() {}

func main() {
	mux := http.NewServeMux()
	mux.HandleFunc("/", (&server{}).serve)
	xs := []string{"bb", "a"}
	slices.SortFunc(xs, compare)
	fmt.Println(first[string](xs), table["one"]())
	var sys system = light{&core{}}
	sys.settle()
	sys.close()
}

func onlyTested() int { // want `main.onlyTested is reached from no main, init or package-level initializer`
	return helper()
}

func helper() int { return 2 } // want `main.helper is reached from no main`

// kept has no caller but carries a directive naming why.
//
//soclint:ignore unreached test support: the fixture's own test calls it
func kept() {}
