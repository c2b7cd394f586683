# Shell functions for CI's checks of the installed `npgq`; source this file.

# within BOUND CMD..: run a --verify command, print its line, and
# hold the error after the line's last ':' to BOUND.
within() {
  local line
  line=$("${@:2}")
  echo "${*:2}: $line"
  python -c "import sys; err = float(sys.argv[1].rsplit(':', 1)[1]); sys.exit(0 if err <= float(sys.argv[2]) else 1)" "$line" "$1"
}

# expect_error CODE CMD..: CMD exits with CODE and one `error:` line.
expect_error() {
  local code=0 err
  err=$("${@:2}" 2>&1 >/dev/null) || code=$?
  echo "${*:2} -> exit $code: $err"
  test "$code" -eq "$1"
  test "$(printf '%s\n' "$err" | wc -l)" -eq 1
  case "$err" in error:*) ;; *) exit 1 ;; esac
}
