from benchmarks.e2e.harness import main

raise SystemExit(main())
