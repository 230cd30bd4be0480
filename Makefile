check:
	scripts/check.sh

bench:
	scripts/check.sh bench

paper:
	scripts/check.sh paper

crash:
	scripts/check.sh crash

dist:
	scripts/check.sh dist

chaos:
	scripts/check.sh chaos

obs:
	scripts/check.sh obs

trace-demo:
	scripts/check.sh trace

.PHONY: check bench paper crash dist chaos obs trace-demo
