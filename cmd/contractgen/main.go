// Contractgen regenerates the golden WSDL contracts under contracts/:
// the published "standard interfaces" (in the paper's SOA sense) of every
// contract-bound service in this repository — the full ASU service
// catalog plus the Robot-as-a-Service descriptor, exactly the set
// cmd/wsrepo mounts. It constructs each service as production code does
// and renders its WSDL with soc/internal/wsdl, so the files are the
// runtime truth.
//
// Run it via `make contracts` after changing any service signature, and
// commit the result. TestContractsMatchServices, in this package,
// verifies the committed files with the same rendering: every bound
// service has a byte-identical contract, and no contract lacks a
// service.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"soc/internal/core"
	"soc/internal/robot"
	"soc/internal/services"
	"soc/internal/wsdl"
)

func main() {
	out := flag.String("out", "contracts", "directory to write .wsdl contracts into")
	flag.Parse()

	svcs, err := boundServices()
	if err != nil {
		log.Fatalf("contractgen: building services: %v", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatalf("contractgen: %v", err)
	}
	for _, svc := range svcs {
		doc, err := render(svc)
		if err != nil {
			log.Fatalf("contractgen: generating %s: %v", svc.Name, err)
		}
		path := filepath.Join(*out, svc.Name+".wsdl")
		if err := os.WriteFile(path, doc, 0o644); err != nil {
			log.Fatalf("contractgen: %v", err)
		}
		fmt.Printf("wrote %s (%d ops)\n", path, len(svc.Operations()))
	}
}

// render is the golden contract of svc. Its endpoint is a stable
// placeholder: the contract pins the interface, not a deployment.
func render(svc *core.Service) ([]byte, error) {
	return wsdl.Generate(svc, "http://localhost/services/"+svc.Name+"/soap")
}

// boundServices constructs every contract-bound service: the full
// repository catalog and the robot service.
func boundServices() ([]*core.Service, error) {
	dataDir, err := os.MkdirTemp("", "contractgen-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataDir)
	catalog, err := services.NewCatalog(dataDir)
	if err != nil {
		return nil, err
	}
	robotSvc, err := robot.NewService(robot.NewSessions())
	if err != nil {
		return nil, err
	}
	return append(catalog.Services, robotSvc), nil
}
