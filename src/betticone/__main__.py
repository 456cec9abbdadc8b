"""python -m betticone runs the command line, as the betticone script does."""

from .cli import main

if __name__ == "__main__":
    main()
