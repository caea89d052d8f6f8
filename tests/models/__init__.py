"""Reference models the tests hold the program to."""
