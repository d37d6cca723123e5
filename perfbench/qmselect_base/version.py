__version__ = "0.1.0"
CONFIG_SCHEMA = 1
