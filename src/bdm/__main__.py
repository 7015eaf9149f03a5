"""python -m bdm: the bdm command line."""
from .cli import main

if __name__ == "__main__":
    main()
